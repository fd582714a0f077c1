"""Workload definitions: seeded inputs, the CLI stages each one times, and
the stage runner that measures one `poakit` process at a time.

Every workload builds its inputs from the seed in a set-up phase, then runs
its timed stages as separate `poakit` processes (closed loop: one caller, at
most one process alive). Each stage's wall time comes from `perf_counter`
around spawn-to-reap and its peak RSS from `os.wait4`.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from poakit import detect as detect_mod
from poakit import forecast as fc
from poakit import io as pio
from poakit import synth as synth_mod
from poakit import uncertainty as unc

SWEEP_VALUES = "0.1,0.01,0.001,0.0001"
INPUT_LEN, HORIZON = 100, 24
TRAIN_FRAC = 0.7
TOP_K = 5


@dataclass
class Stage:
    """One `poakit` invocation. `outputs` are the data files it must leave."""

    name: str
    args: list[str]
    outputs: list[str] = field(default_factory=list)


@dataclass
class StageRun:
    name: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    log: str
    missing: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.missing


class StageRunner:
    """Spawns `python -m poakit.cli` against the checkout's own source tree."""

    def __init__(self, src_dir: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.env.pop("POAKIT_SEED", None)

    def run(self, stage: Stage) -> StageRun:
        log_path = self.work / f"{stage.name}.log"
        cmd = [sys.executable, "-m", "poakit.cli", *stage.args]
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no stage process behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        missing = [p for p in stage.outputs
                   if not (self.work / p).is_file() or (self.work / p).stat().st_size == 0]
        return StageRun(stage.name, wall, usage.ru_maxrss / 1024.0, proc.returncode,
                        log_path.read_text(errors="replace")[-2000:], missing)


def synth_config(rows: int, n_anomalies: int, seed: int) -> synth_mod.SynthConfig:
    """The default synth config stretched to `rows` with evenly spaced anomalies."""
    base = synth_mod.default_config(seed)
    spacing = rows // (n_anomalies + 1)
    kinds = ("spike", "level_shift", "variance_burst")
    anomalies = tuple(
        synth_mod.AnomalySpec(start=spacing * (i + 1), length=40, kind=kinds[i % 3],
                              magnitude=0.8)
        for i in range(n_anomalies)
    )
    return synth_mod.SynthConfig(
        length=rows, variables=base.variables, anomalies=anomalies,
        precursor=base.precursor, obs_noise_std=base.obs_noise_std, seed=seed,
    )


def synth_config_json(cfg: synth_mod.SynthConfig) -> dict:
    """`cfg` in the README's synth config schema, for `poakit synth --config`."""
    variables = [
        {"kind": "sine", "amplitude": v.amplitude, "period": v.period, "phase": v.phase}
        if isinstance(v, synth_mod.SineBase) else
        {"kind": "ar1", "coef": v.coef, "noise_std": v.noise_std}
        for v in cfg.variables
    ]
    p = cfg.precursor
    return {
        "length": cfg.length, "variables": variables,
        "anomalies": [{"start": a.start, "length": a.length, "kind": a.kind,
                       "magnitude": a.magnitude} for a in cfg.anomalies],
        "precursor": {"lead": p.lead, "length": p.length, "drift_magnitude": p.drift_magnitude,
                      "noise_inflation": p.noise_inflation},
        "obs_noise_std": cfg.obs_noise_std, "seed": cfg.seed,
    }


def library_forecasts(cfg, top_k):
    """In-memory equivalent of `synth` + `split` + `forecast` at CLI defaults.

    Returns (test ensembles, valid ensembles, labels). `top_k=None` keeps the
    whole default pool instead of ranking members on the validation split.
    """
    train, test, labels, _ = synth_mod.generate(cfg)
    train_part, valid = pio.chronological_split(train, TRAIN_FRAC)
    window = fc.WindowConfig(INPUT_LEN, HORIZON, 1)
    fitted = [fc.fit(spec, train_part) for spec in fc.default_member_specs()]
    valid_windows = fc.make_windows(valid, window, with_targets=True)
    test_windows = fc.make_windows(test, window, with_targets=False)
    if top_k is not None:
        inputs = np.stack([w.input for w in valid_windows])
        targets = np.stack([w.target for w in valid_windows])
        preds = {m.member_id: fc.predict_batch(m, inputs, HORIZON) for m in fitted}
        selected = set(fc.select_top_k(fc.evaluate_members(preds, targets), top_k))
        fitted = [m for m in fitted if m.member_id in selected]
    valid_ens = fc.forecast_ensembles(fitted, valid_windows, HORIZON)
    test_ens = fc.forecast_ensembles(fitted, test_windows, HORIZON)
    return test_ens, valid_ens, labels


def write_ndjson_records(path: Path, ensembles) -> None:
    """Forecast records as one JSON object per line, floats at full precision.

    Deliberately independent of `poakit.forecast.write_forecast_records`, so
    an edit to poakit's writer cannot change this workload's input.
    """
    with open(path, "w") as fh:
        for ens in ensembles:
            head = f'{{"window_id": {ens.window_id}, "origin": {ens.origin}, "member_id": '
            for m, member in enumerate(ens.member_ids):
                prefix = head + json.dumps(member)
                for step, row in enumerate(ens.predictions[m].tolist(), start=1):
                    for var, value in enumerate(row):
                        fh.write(f'{prefix}, "step": {step}, "variable": {var}, '
                                 f'"value": {value!r}}}\n')


def threshold_for_runs(scores, target: int) -> float:
    """The highest threshold whose detection flags exactly `target` runs (or
    the count nearest to it), found by lowering the threshold one distinct
    defined score at a time. Fixing the run count keeps the work of a
    detection's evaluation the same for every seed."""
    values = scores.scores
    flagged = np.zeros(len(values) + 2, dtype=bool)  # padded: every flag has neighbours
    idx = np.flatnonzero(scores.defined)
    order = idx[np.argsort(-values[idx], kind="stable")]
    runs, best, best_gap, i = 0, None, None, 0
    while i < len(order):
        tau = values[order[i]]
        while i < len(order) and values[order[i]] == tau:
            p = order[i] + 1
            runs += 1 - int(flagged[p - 1]) - int(flagged[p + 1])
            flagged[p] = True
            i += 1
        gap = abs(runs - target)
        if best_gap is None or gap < best_gap:
            best, best_gap = float(tau), gap
        if gap == 0:
            break
    return best


def write_setup_info(data: Path, test_ens, valid_ens) -> None:
    """Shape of the in-memory forecasts, for the input counts."""
    _, _, variables = test_ens[0].predictions.shape
    (data / "setup.json").write_text(json.dumps({
        "variables": variables, "members": len(test_ens[0].member_ids),
        "windows_test": len(test_ens), "windows_valid": len(valid_ens),
    }))


class Workload:
    """Base: `setup` builds inputs under `work`, `stages` lists the timed runs."""

    name = ""
    gated_stages: tuple[str, ...] = ()  # traced stages trace.stage_coverage covers
    seed_independent_counts: tuple[str, ...] = ()
    hashed_files: tuple[str, ...] = ()  # data outputs pinned by sha256
    meta_files: tuple[str, ...] = ("run/detection.csv.meta.json",)  # pinned by value
    detection_check: tuple[str, str, str] = ()  # (scores, labels, detection)
    evaluation_check: tuple[str, str, str] | None = None  # (detection, labels, evaluation)
    record_files: dict[str, str] = {}  # forecast-record files, by split
    dense_detection: str | None = None
    grid_n = 256

    def shape(self, work: Path) -> dict:
        """Variables, members and windows of the forecasts the set-up built."""
        return json.loads((work / "data/setup.json").read_text())

    def producer(self, path: str) -> str:
        """The timed stage that writes `path`, or "setup" for an input."""
        for stage in self.stages():
            if path in stage.outputs:
                return stage.name
        return "setup"

    def setup(self, work: Path, seed: int) -> None:
        """Build the inputs in process (runs before `setup_stages`)."""

    def setup_stages(self, seed: int) -> list[Stage]:
        """`poakit` runs that build the inputs."""
        return []

    def stages(self) -> list[Stage]:
        raise NotImplementedError

    def before_stage(self, work: Path, stage: Stage) -> None:
        """Out-of-band file handling the CLI does not do itself."""

    def reset_outputs(self, work: Path) -> None:
        shutil.rmtree(work / "run", ignore_errors=True)
        # `score` and `sweep` do not create their output directory.
        (work / "run").mkdir()


class ReadmePipeline(Workload):
    name = "readme-pipeline"
    rows, n_anomalies = 1_000, 2
    gated_stages = ("forecast", "score", "detect", "evaluate")
    hashed_files = ("data/train.csv", "data/test.csv", "data/labels.csv", "parts/train.csv",
                    "parts/valid.csv", "fc/scoreboard.csv", "fc/valid_forecasts.csv",
                    "fc/test_forecasts.csv", "run/scores.csv", "run/detection.csv",
                    "run/evaluation.json", "run/theta_curve.csv", "run/k_sweep.csv")
    detection_check = ("run/scores.csv", "data/labels.csv", "run/detection.csv")
    evaluation_check = ("run/detection.csv", "data/labels.csv", "run/evaluation.json")
    seed_independent_counts = ("rows", "variables", "anomalies", "members",
                               "windows_valid", "windows_test", "records_valid",
                               "records_test")
    record_files = {"valid": "fc/valid_forecasts.csv", "test": "fc/test_forecasts.csv"}

    def shape(self, work):
        with open(work / "data/test.csv") as fh:
            variables = len(fh.readline().split(",")) - 1
        with open(work / "fc/scoreboard.csv", newline="") as fh:
            members = sum(int(row["selected"]) for row in csv.DictReader(fh))
        return {"variables": variables, "members": members}

    def setup(self, work, seed):
        cfg = synth_config_json(synth_config(self.rows, self.n_anomalies, seed))
        (work / "synth.json").write_text(json.dumps(cfg, indent=2))

    def setup_stages(self, seed):
        return [
            Stage("synth", ["synth", "data", "--config", "synth.json", "--seed", str(seed)],
                  ["data/train.csv", "data/test.csv", "data/labels.csv"]),
            Stage("split", ["split", "data/train.csv", "parts", "--train-frac", str(TRAIN_FRAC)],
                  ["parts/train.csv", "parts/valid.csv"]),
        ]

    def stages(self):
        return [
            Stage("forecast",
                  ["forecast", "parts/train.csv", "parts/valid.csv", "fc", "--test",
                   "data/test.csv", "--top-k", str(TOP_K), "--criterion", "mse",
                   "--input-len", str(INPUT_LEN), "--horizon", str(HORIZON), "--stride", "1"],
                  ["fc/scoreboard.csv", "fc/valid_forecasts.csv", "fc/test_forecasts.csv"]),
            Stage("score",
                  ["score", "fc/test_forecasts.csv", "fc/valid_forecasts.csv",
                   "run/scores.csv", "--agg", "mean", "--collate", "max"],
                  ["run/scores.csv"]),
            Stage("detect",
                  ["detect", "run/scores.csv", "data/labels.csv", "run/detection.csv",
                   "--grid-n", str(self.grid_n), "--metric", "ptapr-f1@0"],
                  ["run/detection.csv", "run/detection.csv.meta.json"]),
            Stage("evaluate",
                  ["evaluate", "run/detection.csv", "data/labels.csv", "run",
                   "--metrics", "ptapr,tapr,pak"],
                  ["run/evaluation.json", "run/theta_curve.csv"]),
            Stage("sweep",
                  ["sweep", "run/detection.csv", "data/labels.csv", "run/k_sweep.csv",
                   "--param", "k", "--values", SWEEP_VALUES],
                  ["run/k_sweep.csv"]),
            Stage("report", ["report", "run"], ["run/report.json"]),
        ]

    def before_stage(self, work, stage):
        if stage.name == "report":  # the README's `cp out/data/labels.csv out/run/`
            shutil.copyfile(work / "data/labels.csv", work / "run/labels.csv")

    def reset_outputs(self, work):
        shutil.rmtree(work / "fc", ignore_errors=True)
        super().reset_outputs(work)


class SegmentSearch(Workload):
    name = "segment-search"
    rows, n_anomalies, grid_n, dense_runs = 4_000, 8, 64, 230
    dense_detection = "data/dense.csv"
    gated_stages = ("detect", "evaluate")
    hashed_files = ("data/scores.csv", "data/labels.csv", "data/dense.csv",
                    "run/detection.csv", "run/evaluation.json", "run/theta_curve.csv",
                    "run/k_sweep.csv")
    meta_files = ("data/dense.csv.meta.json", "run/detection.csv.meta.json")
    detection_check = ("data/scores.csv", "data/labels.csv", "run/detection.csv")
    evaluation_check = ("data/dense.csv", "data/labels.csv", "run/evaluation.json")
    seed_independent_counts = ("rows", "variables", "anomalies", "members",
                               "windows_valid", "windows_test", "dense_runs")

    def setup(self, work, seed):
        data = work / "data"
        data.mkdir(exist_ok=True)
        test_ens, valid_ens, labels = library_forecasts(
            synth_config(self.rows, self.n_anomalies, seed), TOP_K)
        scores = unc.score_timeline(test_ens, valid_ens)
        pio.write_scores(data / "scores.csv", scores)
        pio.write_labels_csv(data / "labels.csv", labels)
        dense = detect_mod.apply_threshold(scores, threshold_for_runs(scores, self.dense_runs))
        # Always write the sidecar: without it read_detection assumes 0.0.
        pio.write_detection(data / "dense.csv", dense,
                            {"note": f"highest threshold giving {self.dense_runs} runs"})
        write_setup_info(data, test_ens, valid_ens)

    def stages(self):
        return [
            Stage("detect",
                  ["detect", "data/scores.csv", "data/labels.csv", "run/detection.csv",
                   "--grid-n", str(self.grid_n)],
                  ["run/detection.csv", "run/detection.csv.meta.json"]),
            Stage("evaluate", ["evaluate", "data/dense.csv", "data/labels.csv", "run"],
                  ["run/evaluation.json", "run/theta_curve.csv"]),
            Stage("sweep",
                  ["sweep", "data/dense.csv", "data/labels.csv", "run/k_sweep.csv",
                   "--param", "k", "--values", SWEEP_VALUES],
                  ["run/k_sweep.csv"]),
        ]


class ExternalNdjson(Workload):
    name = "external-ndjson"
    rows, n_anomalies = 600, 2
    gated_stages = ("score", "detect")
    hashed_files = ("data/test_forecasts.ndjson", "data/valid_forecasts.ndjson",
                    "data/labels.csv", "run/scores.csv", "run/detection.csv")
    detection_check = ("run/scores.csv", "data/labels.csv", "run/detection.csv")
    seed_independent_counts = ("rows", "variables", "anomalies", "members",
                               "windows_valid", "windows_test", "records_valid",
                               "records_test")
    record_files = {"valid": "data/valid_forecasts.ndjson",
                    "test": "data/test_forecasts.ndjson"}

    def setup(self, work, seed):
        data = work / "data"
        data.mkdir(exist_ok=True)
        test_ens, valid_ens, labels = library_forecasts(
            synth_config(self.rows, self.n_anomalies, seed), None)
        write_ndjson_records(data / "test_forecasts.ndjson", test_ens)
        write_ndjson_records(data / "valid_forecasts.ndjson", valid_ens)
        pio.write_labels_csv(data / "labels.csv", labels)
        write_setup_info(data, test_ens, valid_ens)

    def stages(self):
        return [
            Stage("score",
                  ["score", "data/test_forecasts.ndjson", "data/valid_forecasts.ndjson",
                   "run/scores.csv"],
                  ["run/scores.csv"]),
            Stage("detect",
                  ["detect", "run/scores.csv", "data/labels.csv", "run/detection.csv",
                   "--grid-n", str(self.grid_n)],
                  ["run/detection.csv", "run/detection.csv.meta.json"]),
        ]


WORKLOADS = {w.name: w for w in (ReadmePipeline(), SegmentSearch(), ExternalNdjson())}
