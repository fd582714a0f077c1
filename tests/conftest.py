from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from click.testing import CliRunner

from poakit.cli import cli
from poakit.core import SegmentSet, ambiguous_ends


def segment_set(anomalies, predictions=(), precursor_starts=None, *, delta, series_len):
    """A SegmentSet from ``(start, length)`` pairs of anomalies and predictions.

    Each anomaly's ambiguous end comes from ``core.ambiguous_ends`` over a
    series of ``series_len`` rows. ``precursor_starts`` gives, per prediction,
    where its precursor starts (-1: none); by default no prediction has one.
    """
    a_s, a_len = np.array(anomalies, dtype=np.int64).reshape(-1, 2).T
    p_s, p_len = np.array(predictions, dtype=np.int64).reshape(-1, 2).T
    a_e = a_s + a_len - 1
    if precursor_starts is None:
        precursor_starts = np.full(p_s.shape, -1)
    return SegmentSet(a_s, a_e, ambiguous_ends(a_s, a_e, delta, series_len),
                      p_s, p_s + p_len - 1, np.array(precursor_starts, dtype=np.int64), delta)


@dataclass
class BenchmarkRun:
    """Artifacts of one full CLI pipeline run on the default synthetic benchmark."""

    root: Path
    data: Path
    run: Path      # normalized-score pipeline outputs
    run_raw: Path  # --no-normalize ablation outputs
    elapsed: float  # wall time of the normalized pipeline, seconds


@pytest.fixture(scope="session")
def benchmark_run(tmp_path_factory) -> BenchmarkRun:
    root = tmp_path_factory.mktemp("benchmark")
    runner = CliRunner()

    def invoke(args):
        result = runner.invoke(cli, [str(a) for a in args])
        assert result.exit_code == 0, f"{args}: exit {result.exit_code}: {result.output}"

    data = root / "data"
    parts = root / "parts"
    fcdir = root / "fc"
    run = root / "run"
    run_raw = root / "run_raw"
    run.mkdir()
    run_raw.mkdir()

    t0 = perf_counter()
    invoke(["synth", data])
    invoke(["split", data / "train.csv", parts])
    invoke([
        "forecast", parts / "train.csv", parts / "valid.csv", fcdir,
        "--test", data / "test.csv",
    ])
    invoke([
        "score", fcdir / "test_forecasts.csv", fcdir / "valid_forecasts.csv",
        run / "scores.csv",
    ])
    invoke(["detect", run / "scores.csv", data / "labels.csv", run / "detection.csv"])
    invoke(["evaluate", run / "detection.csv", data / "labels.csv", run])
    elapsed = perf_counter() - t0

    invoke([
        "score", fcdir / "test_forecasts.csv", fcdir / "valid_forecasts.csv",
        run_raw / "scores.csv", "--no-normalize",
    ])
    invoke(["detect", run_raw / "scores.csv", data / "labels.csv", run_raw / "detection.csv"])
    invoke(["evaluate", run_raw / "detection.csv", data / "labels.csv", run_raw])
    return BenchmarkRun(root=root, data=data, run=run, run_raw=run_raw, elapsed=elapsed)
