"""Output checks and input-size counts, all run outside the timed stages.

A seed with recorded results (expected.json) is checked byte for byte: the
sha256 of every data output, plus the detection sidecar's threshold and F1
by value (the sidecar embeds an input path). Any other seed is checked
against the independent oracle in tests/reference_metrics.py. Counts are
measured from the files the run produced, never taken from the config.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from workloads import HORIZON

# poakit's metric defaults, as the CLI stages run them.
ALPHA = BETA = GAMMA = 1 / 3
DELTA, EPSILON, K, TAPR_ALPHA = 24, 7, 0.001, 0.5
PAK_GRID = list(range(0, 101, 10))
TOLERANCE = 1e-8  # JSON floats carry 9 significant digits

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_oracle(tests_dir: Path):
    spec = importlib.util.spec_from_file_location(
        "reference_metrics", tests_dir / "reference_metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _column(path: Path, index: int) -> list[str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [row[index] for row in rows[1:] if row]


def read_flags(path: Path) -> list[int]:
    """Column 1 of a labels or detection CSV as 0/1 ints."""
    return [int(v) for v in _column(path, 1)]


def read_scores(path: Path) -> np.ndarray:
    """Scores CSV column 1; an empty cell (never scored) becomes NaN."""
    return np.array([float(v) if v else np.nan for v in _column(path, 1)])


def count_runs(flags) -> int:
    padded = np.concatenate([[0], np.asarray(flags, dtype=np.int8), [0]])
    return int(np.count_nonzero(np.diff(padded) == 1))


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def search_counts(scores_path: Path, n_anomalies: int, grid_n: int) -> dict:
    """Grid candidates and segment pairs of detect's threshold search.

    The grid is the one `detect` builds (unique quantiles of the defined
    scores); each candidate's prediction count equals its flagged-run count,
    because splitting a run at an onset keeps one prediction per run.
    """
    scores = read_scores(scores_path)
    defined = ~np.isnan(scores)
    grid = np.unique(np.quantile(scores[defined], np.linspace(0.0, 1.0, grid_n)))
    pairs = sum(n_anomalies * count_runs(defined & (scores >= tau)) for tau in grid)
    return {"grid_candidates": int(grid.size), "segment_pairs": int(pairs)}


def input_counts(workload, work: Path) -> dict:
    """Exact input sizes of one run, measured from its files."""
    labels = read_flags(work / "data/labels.csv")
    counts = {"rows": len(labels), "anomalies": count_runs(labels), **workload.shape(work)}
    cell = counts["members"] * HORIZON * counts["variables"]
    for part, name in workload.record_files.items():
        path = work / name
        counts[f"records_{part}"] = count_lines(path) - (1 if name.endswith(".csv") else 0)
        counts[f"windows_{part}"] = counts[f"records_{part}"] // cell
        counts[f"bytes_{part}"] = path.stat().st_size
    if workload.dense_detection:
        counts["dense_runs"] = count_runs(read_flags(work / workload.dense_detection))
    scores = work / workload.detection_check[0]
    counts.update(search_counts(scores, counts["anomalies"], workload.grid_n))
    return counts


def _meta(path: Path) -> dict:
    data = json.loads(path.read_text())
    return {"threshold": data["threshold"], "f1": data.get("f1")}


def snapshot(workload, work: Path) -> dict:
    """What a recorded seed pins: hashes of data outputs and sidecar values."""
    return {
        "sha256": {p: sha256(work / p) for p in workload.hashed_files},
        "meta": {p: _meta(work / p) for p in workload.meta_files},
    }


def compare_snapshot(expected: dict, got: dict) -> list[str]:
    """Names of the files whose recorded hash or sidecar value differs."""
    bad = [p for p, h in expected["sha256"].items() if got["sha256"].get(p) != h]
    for p, values in expected["meta"].items():
        for key, value in values.items():
            seen = got["meta"][p][key]
            if (seen is None) != (value is None) or (
                    value is not None and abs(seen - value) > TOLERANCE):
                bad.append(p)
                break
    return bad


def check_detection(oracle, work: Path, scores: str, labels: str, detection: str) -> list[str]:
    """The detection flags exactly the defined scores >= its threshold, and its
    search F1 equals the oracle's PTaPR F1 at theta 0."""
    problems = []
    meta = json.loads((work / f"{detection}.meta.json").read_text())
    values = read_scores(work / scores)
    flags = read_flags(work / detection)
    expected_flags = (~np.isnan(values)) & (values >= meta["threshold"])
    if not np.array_equal(np.asarray(flags, dtype=bool), expected_flags):
        problems.append(f"{detection}: flags differ from scores >= threshold")
    label_flags = read_flags(work / labels)
    _, _, f1 = oracle.ref_ptapr(label_flags, flags, 0.0, ALPHA, BETA, GAMMA, DELTA, EPSILON, K)
    if abs(f1 - meta["f1"]) > TOLERANCE:
        problems.append(f"{detection}: search F1 {meta['f1']} != oracle {f1}")
    return problems


def check_evaluation(oracle, work: Path, detection: str, labels: str,
                     evaluation: str) -> list[str]:
    """Headline values of evaluation.json against the oracle."""
    flags = read_flags(work / detection)
    label_flags = read_flags(work / labels)
    payload = json.loads((work / evaluation).read_text())
    pairs = [
        ("ptapr.f1_0", payload["ptapr"]["f1_0"],
         oracle.ref_ptapr(label_flags, flags, 0.0, ALPHA, BETA, GAMMA, DELTA, EPSILON, K)[2]),
        ("ptapr.f1_1", payload["ptapr"]["f1_1"],
         oracle.ref_ptapr(label_flags, flags, 1.0, ALPHA, BETA, GAMMA, DELTA, EPSILON, K)[2]),
        ("tapr.f1_0", payload["tapr"]["f1_0"],
         oracle.ref_tapr(label_flags, flags, 0.0, TAPR_ALPHA, DELTA)[2]),
        ("pak.f1_pa", payload["pak"]["f1_pa"],
         oracle.ref_pa_k(flags, label_flags, PAK_GRID)[0]),
    ]
    return [f"{evaluation}: {name} {got} != oracle {want}"
            for name, got, want in pairs if abs(got - want) > TOLERANCE]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
