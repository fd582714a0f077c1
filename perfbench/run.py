"""poakit benchmark: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload readme-pipeline --seed 42 --seconds 55 --trace 0

With `--trace 0` the workload's CLI stages run as separate `poakit`
processes and the end-to-end metrics are printed. With `--trace 1` the same
stages run once in this process through `poakit.cli`, with every call into
a poakit layer traced (probes.py), and the per-layer metrics are printed.
Either way the outputs are checked and the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--record` pins a
clean run's output hashes and input counts for its seed in
perfbench/expected.json.

The program under test is the `src/` tree of the checkout this file sits in;
nothing is installed. Scratch files go to `.perfbench/` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import SETUP, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC, TESTS = ROOT / "src", ROOT / "tests"
SCRATCH = ROOT / ".perfbench"
SETUP_REPS = 5
STARTUP_REPS = 5
RUN_BUDGET_S = 150.0  # stop adding passes so a run ends well inside 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

STAGE_METRICS = {"forecast": "forecast_s", "score": "score_s", "detect": "detect_s",
                 "evaluate": "evaluate_s"}

# per-layer metric -> span names whose durations it sums, under the timed
# stages only; SETUP_LAYERS sum them under the set-up instead
LAYER_SPANS = {
    "synth.generate_s": ("synth.generate",),
    "io.read_series_s": ("io.read_series_csv",),
    "io.write_series_s": ("io.write_series_csv", "io.write_labels_csv",
                          "io.write_segments_csv"),
    "io.scores_rw_s": ("io.write_scores", "io.read_scores"),
    "io.labels_read_s": ("io.read_labels_csv",),
    "io.detection_rw_s": ("io.write_detection", "io.read_detection"),
    "io.json_write_s": ("io.write_json", "io.write_manifest", "io.write_theta_curve_csv"),
    "forecast.fit_s": ("forecast.fit",),
    "forecast.predict_s": ("forecast.predict_batch", "forecast.forecast_ensembles"),
    "forecast.write_records_s": ("forecast.write_forecast_records",),
    "forecast.ingest_s": ("forecast.ingest_external_forecasts",),
    "uncertainty.score_timeline_s": ("uncertainty.score_timeline",),
    "detect.grid_s": ("detect.default_grid",),
    "detect.search_s": ("detect.best_f1_threshold",),
    "detect.split_s": ("detect.split_precursor_prediction",),
    "metrics.ptapr_report_s": ("metrics.ptapr_report",),
    "metrics.tapr_curve_s": ("metrics.tapr",),
    "metrics.theta_sweep_s": ("metrics.ptapr_theta_sweep",),
    "metrics.early_prf_s": ("metrics.early_prf",),
    "metrics.pak_s": ("metrics.pa_k_suite",),
}
SETUP_LAYERS = ("synth.generate_s", "io.write_series_s")  # only the set-up makes series
LAYER_COUNTS = ("forecast.records_written", "forecast.bytes_written",
                "forecast.records_read", "forecast.bytes_read", "uncertainty.windows",
                "detect.candidates", "detect.segment_pairs")
LAYER_CALLS = {"metrics.ptapr_report_calls": "metrics.ptapr_report",
               "metrics.tapr_calls": "metrics.tapr"}
TRACED_STAGES = ("forecast", "score", "detect", "evaluate")


class Failure(Exception):
    """The run cannot go on: a stage it depends on failed."""


class Tally:
    """Stage invocations attempted and failed, plus what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, runs, expected_count=None) -> bool:
        """Count CLI runs; stages a failure kept from running count as failed."""
        expected_count = len(runs) if expected_count is None else expected_count
        self.attempted += expected_count
        bad = [r for r in runs if not r.ok]
        self.failed += len(bad) + expected_count - len(runs)
        for r in bad:
            self.problems.append(f"{r.name}: exit {r.exit_code}, missing {r.missing}: "
                                 f"{r.log.strip()[-300:]}")
        return not bad and len(runs) == expected_count


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="pin this seed's output hashes and counts in expected.json")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_stages(workload, runner, work, stages, tally):
    """Run `stages` in order; the first failure ends the run."""
    runs = []
    for stage in stages:
        workload.before_stage(work, stage)
        runs.append(runner.run(stage))
        if not runs[-1].ok:
            break
    if not tally.add(runs, len(stages)):
        raise Failure(f"{workload.name}: stage {runs[-1].name} failed")
    return runs


def run_pass(workload, runner, work, tally):
    """All timed stages once, in order."""
    workload.reset_outputs(work)
    return run_stages(workload, runner, work, workload.stages(), tally)


def recorded_outputs(expected, seed):
    """The outputs recorded for `seed`, or None: also when this environment
    differs from the one they were recorded on, because a float can then
    differ in its last bit without any fault in the program."""
    recorded = expected.get("seeds", {}).get(str(seed))
    if recorded is not None and expected["environment"] != environment():
        print(f"note: seed {seed} was recorded on "
              f"{json.dumps(expected['environment'], sort_keys=True)}; this environment "
              f"differs, so the outputs are checked against the oracle instead")
        return None
    return recorded


def fail_outputs(workload, problems_by_path, tally) -> None:
    """Count each stage whose outputs failed a check once as a failed stage."""
    bad_stages: dict[str, list[str]] = {}
    for path, problem in problems_by_path:
        bad_stages.setdefault(workload.producer(path), []).append(problem)
    for stage, problems in bad_stages.items():
        if stage != "setup":
            tally.failed += 1
        tally.problems.extend(problems)


def check_pass(workload, work, seed, recorded, oracle, tally) -> None:
    """Output checks for one pass; a stage whose output fails counts as failed."""
    import checks

    if recorded is not None:
        differing = checks.compare_snapshot(recorded, checks.snapshot(workload, work))
        found = [(path, f"{path}: differs from the output recorded for seed {seed}")
                 for path in differing]
    else:
        detection = workload.detection_check[2]
        found = [(detection, problem) for problem in
                 checks.check_detection(oracle, work, *workload.detection_check)]
        if workload.evaluation_check:
            evaluation = workload.evaluation_check[2]
            found += [(evaluation, problem) for problem in
                      checks.check_evaluation(oracle, work, *workload.evaluation_check)]
    fail_outputs(workload, found, tally)


def check_repeat(workload, work, first, tally) -> None:
    """A later pass must leave the same bytes as the first, checked one."""
    import checks

    differing = checks.compare_snapshot(first, checks.snapshot(workload, work))
    fail_outputs(workload, [(path, f"{path}: differs from the first pass's output")
                            for path in differing], tally)


def check_counts(counts, expected, recorded, tally) -> None:
    pinned = dict(expected.get("counts", {}))
    pinned.update((recorded or {}).get("counts", {}))
    for key, value in pinned.items():
        if counts.get(key) != value:
            tally.problems.append(f"count {key} = {counts.get(key)}, expected {value} "
                                  f"(wrong workload?)")


def setup_inputs(workload, runner, work, seed, tally):
    fresh_dir(work)
    t0 = time.perf_counter()
    workload.setup(work, seed)
    run_stages(workload, runner, work, workload.setup_stages(seed), tally)
    return time.perf_counter() - t0


def measure(workload, runner, work, args, recorded, oracle, tally, started):
    """Tracing off: set up SETUP_REPS times, then as many timed passes as fit
    in --seconds (at least one). The first pass's outputs are checked; every
    later pass must reproduce them."""
    import checks

    setup_times = [setup_inputs(workload, runner, work, args.seed, tally)
                   for _ in range(SETUP_REPS)]
    passes = []
    timed = 0.0
    first = None
    while True:
        t0 = time.perf_counter()
        runs = run_pass(workload, runner, work, tally)
        passes.append(runs)
        pass_wall = sum(r.wall_s for r in runs)
        timed += pass_wall
        if first is None:
            check_pass(workload, work, args.seed, recorded, oracle, tally)
            first = checks.snapshot(workload, work)
        else:
            check_repeat(workload, work, first, tally)
        pass_cost = time.perf_counter() - t0
        # Another pass only if one more like this fits in --seconds, so a run
        # never measures much past it.
        if (timed + pass_wall > args.seconds
                or time.perf_counter() - started + pass_cost > RUN_BUDGET_S):
            break

    stage_walls = {s.name: [r.wall_s for p in passes for r in p if r.name == s.name]
                   for s in workload.stages()}
    metrics = {
        "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in p) for p in passes),
    }
    print(f"passes: {len(passes)} (timed stage wall {timed:.2f} s); set-up runs: "
          f"{', '.join(f'{t:.3f}' for t in setup_times)} s")
    for name, walls in stage_walls.items():
        label = STAGE_METRICS.get(name, f"{name} stage")
        print(f"stage {name}: {label} = {statistics.median(walls):.4f} s "
              f"(median of {len(walls)})")
    return metrics


def trace_run(workload, runner, work, args, recorded, oracle, tally):
    """Tracing on: set-up and timed stages run once in process, traced."""
    import probes
    from workloads import Stage

    tr = Tracer()
    traced = probes.InProcessRunner(work, tr)
    with probes.instrument(tr):
        with tr.span(SETUP):
            setup_inputs(workload, traced, work, args.seed, tally)
        run_pass(workload, traced, work, tally)
    check_pass(workload, work, args.seed, recorded, oracle, tally)
    startup = [runner.run(Stage("help", ["--help"])) for _ in range(STARTUP_REPS)]
    tally.add(startup)

    metrics = {"cli.startup_s": statistics.median(r.wall_s for r in startup)}
    for name, span_names in LAYER_SPANS.items():
        metrics[name] = tr.total(*span_names, setup=name in SETUP_LAYERS)
    metrics["detect.search_self_s"] = tr.self_time("detect.best_f1_threshold")
    for name in LAYER_COUNTS:
        metrics[name] = tr.counted(name)
    for name, span_name in LAYER_CALLS.items():
        metrics[name] = tr.calls(span_name)
    ingest = metrics["forecast.ingest_s"]
    metrics["forecast.ingest_records_per_s"] = (
        metrics["forecast.records_read"] / ingest if ingest else 0.0)
    for stage in TRACED_STAGES:
        metrics[f"stage.{stage}_s"] = tr.total(f"stage.{stage}")
    coverage = {stage: tr.coverage(f"stage.{stage}") for stage in workload.gated_stages}
    metrics["trace.stage_coverage"] = min(coverage.values())
    print("coverage: " + ", ".join(f"{s}={c:.4f}" for s, c in coverage.items()))
    tr.dump(SCRATCH / f"spans-{workload.name}-{args.seed}.json")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poakit" / "cli.py").is_file() or not (TESTS / "reference_metrics.py").is_file():
        print(f"perfbench: no poakit source tree (src/poakit) and oracle "
              f"(tests/reference_metrics.py) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    from workloads import WORKLOADS, StageRunner

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    expected = checks.load_expected().get(workload.name, {})
    oracle = checks.load_oracle(TESTS)
    work = SCRATCH / "work" / f"{workload.name}-{args.seed}"
    runner = StageRunner(SRC, fresh_dir(work))
    tally = Tally()
    print(f"perfbench: workload={workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    recorded = recorded_outputs(expected, args.seed)
    metrics: dict = {}
    try:
        if args.trace:
            metrics = trace_run(workload, runner, work, args, recorded, oracle, tally)
        else:
            metrics = measure(workload, runner, work, args, recorded, oracle, tally, started)
        counts = checks.input_counts(workload, work)
        print(f"counts: {json.dumps(counts, sort_keys=True)}")
        check_counts(counts, expected, recorded, tally)
        if args.record and (tally.failed or tally.problems):
            print("perfbench: not recording: this run failed its own checks")
        elif args.record:
            record(workload, work, args.seed, counts)
    except Failure as exc:
        tally.problems.append(str(exc))
    except Exception as exc:  # the result line must still report the failure
        traceback.print_exc()
        tally.problems.append(f"benchmark aborted: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in tally.problems:
        print(f"problem: {problem}")
    correct = not tally.problems and tally.failed == 0
    failure_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"metric failure_rate = {failure_rate:g} ratio "
          f"({tally.failed} of {tally.attempted} stage invocations)")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": max(tally.attempted, 1), "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def record(workload, work, seed, counts) -> None:
    """Pin this seed's outputs: run once at a known-good commit, then commit.
    Only a run that passed all its checks is recorded."""
    import checks

    data = checks.load_expected()
    entry = data.setdefault(workload.name, {})
    entry["counts"] = {k: counts[k] for k in workload.seed_independent_counts}
    entry["environment"] = environment()
    entry.setdefault("seeds", {})[str(seed)] = dict(checks.snapshot(workload, work),
                                                    counts=counts)
    checks.EXPECTED_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded seed {seed} for {workload.name} in {checks.EXPECTED_PATH.name}")


if __name__ == "__main__":
    sys.exit(main())
