"""Pipeline driver: synth -> split -> forecast -> score -> detect -> evaluate.

Stages talk to each other only through files, so externally produced
forecasts can be dropped in at the `score` boundary. Every subcommand is
deterministic given its inputs (and seed).

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numeric failure.
Errors print a single machine-parsable line: ``error[<category>]: <text>``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

# One OpenBLAS thread unless the user chose a count: starting the thread pool
# costs every stage about 70 ms of CPU, and poakit's only BLAS call, ar_ols's
# (n-p) x (p+1) lstsq, gives the same bits with one thread. The variable acts
# only if it is set before numpy loads.
if "numpy" not in sys.modules and not any(
        var in os.environ
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import click
import numpy as np

from poakit import core, detect as detect_mod, io as pio
from poakit import metrics as mx
from poakit.core import DataFormatError, NumericError, ValidationError


def _lazy_layer(name: str):
    """Module ``poakit.<name>``, executed on its first attribute access.

    Only `synth`, `forecast` and `score` use these layers, so the other
    stages never compile them. The module object exists from now on, so
    whatever swaps this module's layer references (perfbench's tracer) sees
    it. This is importlib's documented lazy-import recipe.
    """
    full_name = f"poakit.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    spec = importlib.util.find_spec(full_name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full_name] = module
    spec.loader.exec_module(module)
    setattr(sys.modules["poakit"], name, module)  # as `import poakit.<name>` does
    return module


fc = _lazy_layer("forecast")
synth_mod = _lazy_layer("synth")
unc = _lazy_layer("uncertainty")

SEED_ENV_VAR = "POAKIT_SEED"


class CliError(click.ClickException):
    def __init__(self, message: str, exit_code: int, category: str):
        super().__init__(message)
        self.exit_code = exit_code
        self.category = category

    def show(self, file=None) -> None:
        click.echo(f"error[{self.category}]: {self.format_message()}", err=True)


def handle_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (ValidationError, DataFormatError) as exc:
            raise CliError(str(exc), 2, "validation") from exc
        except OSError as exc:
            raise CliError(str(exc), 3, "io") from exc
        except (NumericError, FloatingPointError, ZeroDivisionError) as exc:
            raise CliError(str(exc), 4, "numeric") from exc

    return wrapper


@click.group()
def cli():
    """Precursor-of-anomaly detection pipeline and evaluation metrics."""


def _resolve_seed(flag_seed: int | None, config_seed: int | None) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    if config_seed is not None:
        return config_seed
    return 42


@cli.command()
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Synth config JSON; defaults to the built-in benchmark.")
@click.option("--seed", type=int, default=None,
              help=f"Override the config seed (also via ${SEED_ENV_VAR}).")
@handle_errors
def synth(out_dir, config_path, seed):
    """Generate a synthetic train/test/labels dataset with precursor truth."""
    if config_path is None:
        cfg = synth_mod.default_config()
    else:
        with open(config_path) as fh:
            cfg = synth_mod.config_from_dict(json.load(fh))
    cfg = dataclasses.replace(cfg, seed=_resolve_seed(seed, cfg.seed))
    train, test, labels, truth = synth_mod.generate(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pio.write_series_csv(out / "train.csv", train)
    pio.write_series_csv(out / "test.csv", test)
    pio.write_labels_csv(out / "labels.csv", labels)
    pio.write_segments_csv(out / "precursor_truth.csv", truth)
    files = ["train.csv", "test.csv", "labels.csv", "precursor_truth.csv"]
    pio.write_manifest(
        out / "manifest.json", synth_mod.config_to_dict(cfg), cfg.seed,
        [out / f for f in files],
    )
    click.echo(f"synth: wrote {', '.join(files)} to {out}")


@cli.command()
@click.argument("series_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--train-frac", type=float, default=0.7, show_default=True)
@handle_errors
def split(series_path, out_dir, train_frac):
    """Chronologically split a series into train/valid parts."""
    series = pio.read_series_csv(series_path)
    train, valid = pio.chronological_split(series, train_frac)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pio.write_series_csv(out / "train.csv", train)
    pio.write_series_csv(out / "valid.csv", valid)
    click.echo(f"split: {len(train)}/{len(valid)} rows -> {out}")


# The spec strings of fc.default_member_specs(), written out so that `--help`
# and the stages that never forecast do not load the forecast layer.
DEFAULT_MEMBERS = ("persistence,seasonal_naive:24,moving_average:12,ar_ols:4,"
                   "exp_smoothing:0.3,holt_linear:0.3:0.1")


def _parse_members(text: str) -> list[fc.ForecasterSpec]:
    specs = [fc.ForecasterSpec.parse(part) for part in text.split(",") if part.strip()]
    if not specs:
        raise ValidationError("no forecaster members given")
    seen = set()
    for spec in specs:
        if spec.member_id in seen:
            raise ValidationError(f"--members names member {spec.member_id!r} twice")
        seen.add(spec.member_id)
    return specs


def _rank_members(fitted, valid, cfg, top_k, criterion):
    """Validation scores of every fitted member, and the top-k member ids.

    The stacked inputs, targets and member forecasts die with this call.
    """
    windows = fc.make_windows(valid, cfg, with_targets=True)
    targets = np.stack([w.target for w in windows])
    inputs = np.stack([w.input for w in windows])
    member_preds = {
        m.member_id: fc.predict_batch(m, inputs, cfg.horizon_len) for m in fitted
    }
    scores = fc.evaluate_members(member_preds, targets)
    return scores, set(fc.select_top_k(scores, top_k, criterion))


def _forecast_split(members, windows, cfg, path) -> None:
    """Write the ensemble forecasts of one split; its cube dies with this call."""
    fc.write_forecast_records(path, fc.forecast_ensembles(members, windows, cfg.horizon_len))


@cli.command()
@click.argument("train_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("valid_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--test", "test_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Series to emit inference forecasts for.")
@click.option("--members", default=DEFAULT_MEMBERS, show_default=True,
              help="Comma-separated specs, e.g. 'persistence,ar_ols:4'.")
@click.option("--top-k", type=int, default=5, show_default=True)
@click.option("--criterion", type=click.Choice(["mse", "mae"]), default="mse",
              show_default=True)
@click.option("--input-len", type=int, default=100, show_default=True)
@click.option("--horizon", type=int, default=24, show_default=True)
@click.option("--stride", type=int, default=1, show_default=True)
@click.option("--standardize/--no-standardize", default=False, show_default=True,
              help="Per-variable z-scaling (statistics fit on TRAIN) before "
                   "fitting; forecasts are emitted in the scaled space.")
@handle_errors
def forecast(train_path, valid_path, out_dir, test_path, members, top_k, criterion,
             input_len, horizon, stride, standardize):
    """Fit members on TRAIN, rank them on VALID, emit top-K ensemble forecasts."""
    train = pio.read_series_csv(train_path)
    valid = pio.read_series_csv(valid_path)
    scaler = None
    if standardize:
        mu = train.values.mean(axis=0)
        sd = np.maximum(train.values.std(axis=0), 1e-12)

        def scaler(series):
            return core.TimeSeries(
                series.timestamps, (series.values - mu) / sd, series.variable_names
            )

        train, valid = scaler(train), scaler(valid)
    specs = _parse_members(members)
    cfg = fc.WindowConfig(input_len, horizon, stride)
    test_windows = None
    if test_path is not None:  # windowed before any file is written: a short series fails here
        test = pio.read_series_csv(test_path)
        test_windows = fc.make_windows(test if scaler is None else scaler(test), cfg,
                                       with_targets=False)
    fitted = [fc.fit(spec, train) for spec in specs]
    scores, selected = _rank_members(fitted, valid, cfg, top_k, criterion)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pio.write_csv(
        out / "scoreboard.csv", ("member_id", "mse", "mae", "selected"),
        ((s.member_id, format(s.mse, ".9g"), format(s.mae, ".9g"), int(s.member_id in selected))
         for s in scores),
    )
    chosen = [m for m in fitted if m.member_id in selected]
    _forecast_split(chosen, fc.make_windows(valid, cfg, with_targets=True), cfg,
                    out / "valid_forecasts.csv")
    written = ["scoreboard.csv", "valid_forecasts.csv"]
    if test_windows is not None:
        _forecast_split(chosen, test_windows, cfg, out / "test_forecasts.csv")
        written.append("test_forecasts.csv")
    for model in fitted:
        for note in model.fit_report:
            click.echo(f"forecast: note: {model.member_id}: {note}")
    pio.write_manifest(
        out / "manifest.json",
        {"members": members, "top_k": top_k, "criterion": criterion,
         "input_len": input_len, "horizon": horizon, "stride": stride,
         "standardize": standardize, "selected": sorted(selected)},
        None,
        [out / f for f in written],
    )
    click.echo(f"forecast: selected {sorted(selected)} -> {out}")


@cli.command()
@click.argument("forecasts_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("valid_forecasts_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_path", type=click.Path(dir_okay=False))
@click.option("--length", type=int, default=None,
              help="Test series length; defaults to max window origin + 1.")
@click.option("--agg", type=click.Choice(["mean", "max"]), default="mean",
              show_default=True, help="Variable aggregation.")
@click.option("--collate", type=click.Choice(["max", "latest", "earliest"]),
              default="max", show_default=True, help="Overlapping-window resolution.")
@click.option("--normalize/--no-normalize", "do_normalize", default=True,
              show_default=True, help="Z-score against validation statistics.")
@click.option("--eps-sigma", type=float, default=1e-8, show_default=True)  # unc.DEFAULT_EPS_SIGMA
@handle_errors
def score(forecasts_path, valid_forecasts_path, out_path, length, agg, collate,
          do_normalize, eps_sigma):
    """Turn ensemble forecasts into a per-timestamp precursor score timeline."""
    test_ens = fc.ingest_external_forecasts(forecasts_path)
    valid_ens = fc.ingest_external_forecasts(valid_forecasts_path)
    timeline = unc.score_timeline(
        test_ens, valid_ens, series_len=length, agg=agg, collate=collate,
        eps_sigma=eps_sigma, normalize_scores=do_normalize,
    )
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    pio.write_scores(out_path, timeline)
    n = int(timeline.defined.sum())
    click.echo(f"score: {n}/{len(timeline)} timestamps scored -> {out_path}")


def _metric_options(func):
    for option in reversed([
        click.option("--alpha", type=float, default=1 / 3, show_default="1/3"),
        click.option("--beta", type=float, default=1 / 3, show_default="1/3"),
        click.option("--gamma", type=float, default=1 / 3, show_default="1/3"),
        click.option("--delta", type=int, default=24, show_default=True,
                     help="Ambiguous trailing window length."),
        click.option("--epsilon", type=int, default=7, show_default=True,
                     help="Optimal lead time of the early reward."),
        click.option("--k", type=float, default=0.001, show_default=True,
                     help="Early-reward decay sharpness."),
    ]):
        func = option(func)
    return func


def _parse_detect_metric(metric: str, labels, delta, alpha, beta, gamma, epsilon, k):
    """Build the Detection -> F1 callback for the threshold search."""
    if metric == "point-f1":
        def evaluate(det):
            return mx.pointwise_prf(det.flags, labels.flags)[2]

        return evaluate
    if metric.startswith("ptapr-f1@"):
        try:
            theta = float(metric.split("@", 1)[1])
        except ValueError:
            raise ValidationError(f"bad theta in metric {metric!r}") from None
        params = mx.MetricParams(
            theta=theta, alpha=alpha, beta=beta, gamma=gamma, delta=delta,
            epsilon=epsilon, k=k,
        )

        def evaluate(det):
            seg = detect_mod.split_precursor_prediction(det, labels.flags, delta)
            report = mx.ptapr_report(seg, params)
            return report.f1

        return evaluate
    raise ValidationError(
        f"unknown detect metric {metric!r}; use 'point-f1' or 'ptapr-f1@<theta>'"
    )


@cli.command("detect")
@click.argument("scores_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("labels_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_path", type=click.Path(dir_okay=False))
@click.option("--grid-n", type=int, default=256, show_default=True,
              help="Quantile count of the threshold grid.")
@click.option("--metric", default="ptapr-f1@0", show_default=True,
              help="Search objective: 'point-f1' or 'ptapr-f1@<theta>'.")
@click.option("--search-scores", "search_scores_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Run the threshold search on this held-out scores file "
                   "instead of SCORES (requires --search-labels).")
@click.option("--search-labels", "search_labels_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@_metric_options
@handle_errors
def detect_cmd(scores_path, labels_path, out_path, grid_n, metric,
               search_scores_path, search_labels_path,
               alpha, beta, gamma, delta, epsilon, k):
    """Best-F1 threshold search over score quantiles, then flag emission.

    By default the search runs on SCORES/LABELS themselves. For deployment
    studies the search can instead run on a labeled holdout
    (--search-scores/--search-labels); the winning threshold is then applied
    to SCORES.
    """
    scores = pio.read_scores(scores_path)
    labels = pio.read_labels_csv(labels_path)
    if len(labels) != len(scores):
        raise ValidationError(
            f"labels length {len(labels)} != scores length {len(scores)}"
        )
    if (search_scores_path is None) != (search_labels_path is None):
        raise ValidationError("--search-scores and --search-labels go together")
    if search_scores_path is not None:
        search_scores = pio.read_scores(search_scores_path)
        search_labels = pio.read_labels_csv(search_labels_path)
        if len(search_labels) != len(search_scores):
            raise ValidationError("search labels/scores length mismatch")
    else:
        search_scores, search_labels = scores, labels
    grid = detect_mod.default_grid(search_scores, grid_n)
    evaluate = _parse_detect_metric(
        metric, search_labels, delta, alpha, beta, gamma, epsilon, k
    )
    result = detect_mod.best_f1_threshold(search_scores, search_labels, evaluate, grid)
    detection = detect_mod.apply_threshold(scores, result.threshold)
    meta = {
        "threshold": result.threshold,
        "f1": result.f1,
        "metric": metric,
        "grid": f"{grid_n} quantiles ({len(grid)} unique)",
        "searched_on": Path(search_scores_path or scores_path).name,
        "all_undefined": result.all_undefined,
    }
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    pio.write_detection(out_path, detection, meta)
    if result.all_undefined:
        click.echo("detect: warning: every candidate threshold left F1 undefined")
    click.echo(
        f"detect: threshold {result.threshold:.6g} (search F1 {result.f1:.4f}) "
        f"-> {out_path}"
    )


def _theta_points(n: int) -> np.ndarray:
    """``--theta-grid``: n evenly spaced overlap thresholds over [0, 1]."""
    if n < 1:
        raise ValidationError(f"--theta-grid must be >= 1, got {n}")
    return np.linspace(0.0, 1.0, n)


def _evaluation_payload(detection, labels, params, metrics_wanted, theta_grid_n):
    segments = detect_mod.split_precursor_prediction(detection, labels.flags, params.delta)
    payload: dict = {"params": dataclasses.asdict(params)}
    thetas = _theta_points(theta_grid_n)
    if "ptapr" in metrics_wanted:
        report = mx.ptapr_report(segments, params)
        sweep = mx.ptapr_theta_sweep(segments, params, thetas)
        p_e, r_e, f1_e = mx.early_prf(report)
        payload["ptapr"] = {
            "f1_0": sweep.f1_at_0,
            "f1_1": sweep.f1_at_1,
            "auc": sweep.auc,
            "at_theta": {
                "theta": params.theta, "ptar": report.ptar, "ptap": report.ptap,
                "f1": report.f1,
                "recall_components": {
                    "detection": report.recall.detection,
                    "portion": report.recall.portion,
                    "early": report.recall.early,
                },
                "precision_components": {
                    "detection": report.precision.detection,
                    "portion": report.precision.portion,
                    "early": report.precision.early,
                },
            },
            "early_detection": {"precision": p_e, "recall": r_e, "f1": f1_e},
            "diagnostics": {
                "anomaly_coverage": list(report.anomaly_coverage),
                "anomaly_reward": list(report.anomaly_reward),
                "prediction_coverage": list(report.prediction_coverage),
                "prediction_reward": list(report.prediction_reward),
            },
            "curve": {
                "theta": sweep.thetas, "ptar": sweep.ptar, "ptap": sweep.ptap,
                "f1": sweep.f1,
            },
        }
    if "tapr" in metrics_wanted:
        tapr_sweep = mx.tapr_theta_sweep(segments, params, thetas)
        at_theta = mx.tapr(segments, params)
        payload["tapr"] = {
            "f1_0": tapr_sweep.f1_at_0,
            "f1_1": tapr_sweep.f1_at_1,
            "auc": tapr_sweep.auc,
            "at_theta": {
                "tar": at_theta.tar, "tap": at_theta.tap, "f1": at_theta.f1,
            },
            "curve": {"theta": tapr_sweep.thetas, "f1": tapr_sweep.f1},
        }
    if "pak" in metrics_wanted:
        suite = mx.pa_k_suite(detection.flags, labels.flags)
        payload["pak"] = {
            "f1_pa": suite.f1_pa,
            "f1_pointwise": suite.f1_pointwise,
            "auc": suite.auc,
            "curve": {
                "k": suite.k_values, "precision": suite.precision,
                "recall": suite.recall, "f1": suite.f1,
            },
        }
    return payload


@cli.command()
@click.argument("detection_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("labels_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--metrics", default="ptapr,tapr,pak", show_default=True)
@click.option("--theta", type=float, default=0.0, show_default=True,
              help="Report-level overlap threshold.")
@click.option("--theta-grid", type=int, default=101, show_default=True)
@_metric_options
@click.option("--tapr-alpha", type=float, default=0.5, show_default=True)
@handle_errors
def evaluate(detection_path, labels_path, out_dir, metrics, theta, theta_grid,
             alpha, beta, gamma, delta, epsilon, k, tapr_alpha):
    """Full metric report (PTaPR / TaPR / PA%K) for a stored detection."""
    detection = pio.read_detection(detection_path)
    labels = pio.read_labels_csv(labels_path)
    wanted = {m.strip() for m in metrics.split(",") if m.strip()}
    unknown = wanted - {"ptapr", "tapr", "pak"}
    if unknown:
        raise ValidationError(f"unknown metrics: {sorted(unknown)}")
    params = mx.MetricParams(
        theta=theta, alpha=alpha, beta=beta, gamma=gamma, delta=delta,
        epsilon=epsilon, k=k, tapr_alpha=tapr_alpha,
    )
    payload = _evaluation_payload(detection, labels, params, wanted, theta_grid)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pio.write_json(out / "evaluation.json", payload)
    if "ptapr" in payload:
        curve = payload["ptapr"]["curve"]
        pio.write_theta_curve_csv(
            out / "theta_curve.csv", curve["theta"], curve["ptar"], curve["ptap"],
            curve["f1"],
        )
    summary = []
    for name in ("ptapr", "tapr", "pak"):
        if name in payload:
            block = payload[name]
            if name == "pak":
                summary.append(f"pak F1_PA={block['f1_pa']:.4f} AUC={block['auc']:.4f}")
            else:
                summary.append(
                    f"{name} F1_0={block['f1_0']:.4f} F1_1={block['f1_1']:.4f} "
                    f"AUC={block['auc']:.4f}"
                )
    click.echo("evaluate: " + "; ".join(summary) + f" -> {out}")


@cli.command()
@click.argument("detection_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("labels_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_path", type=click.Path(dir_okay=False))
@click.option("--param", type=click.Choice(["k", "epsilon"]), required=True)
@click.option("--values", required=True, help="Comma-separated parameter values.")
@click.option("--theta-grid", type=int, default=101, show_default=True)
@_metric_options
@handle_errors
def sweep(detection_path, labels_path, out_path, param, values, theta_grid,
          alpha, beta, gamma, delta, epsilon, k):
    """Sensitivity sweep of the early-reward parameters (k or epsilon)."""
    detection = pio.read_detection(detection_path)
    labels = pio.read_labels_csv(labels_path)
    segments = detect_mod.split_precursor_prediction(detection, labels.flags, delta)
    try:
        parsed = [float(v) for v in values.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse --values {values!r}") from None
    if not parsed:
        raise ValidationError("no sweep values given")
    if param == "epsilon" and not all(v.is_integer() for v in parsed):
        raise ValidationError(f"epsilon values must be integers, got {values!r}")
    thetas = _theta_points(theta_grid)
    base = mx.MetricParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta, epsilon=epsilon, k=k)
    cast = float if param == "k" else int
    rows = []
    for value in parsed:
        params = dataclasses.replace(base, **{param: cast(value)})
        s = mx.ptapr_theta_sweep(segments, params, thetas)
        rows.append((value, s.f1_at_0, s.f1_at_1, s.auc))
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    pio.write_csv(out_path, (param, "f1_0", "f1_1", "auc"),
                  ([format(v, ".9g") for v in row] for row in rows))
    click.echo(f"sweep: {len(rows)} {param} values -> {out_path}")


@cli.command()
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@handle_errors
def report(run_dir):
    """Consolidate a run directory into plot-ready CSVs plus report.json.

    Expects the conventional file names produced by the other subcommands:
    scores.csv, detection.csv, labels.csv, evaluation.json (whichever exist).
    """
    run = Path(run_dir)
    consolidated: dict = {}
    plot_files = []
    scores = labels = detection = None
    if (run / "scores.csv").exists():
        scores = pio.read_scores(run / "scores.csv")
    if (run / "labels.csv").exists():
        labels = pio.read_labels_csv(run / "labels.csv")
    if (run / "detection.csv").exists():
        detection = pio.read_detection(run / "detection.csv")
        meta_path = run / "detection.csv.meta.json"
        if meta_path.exists():
            consolidated["detection"] = json.loads(meta_path.read_text())
    lengths = {name: len(table) for name, table in
               (("scores", scores), ("detection", detection), ("labels", labels))
               if table is not None}
    if len(set(lengths.values())) > 1:
        raise ValidationError(
            f"{run}: run files differ in length: "
            + ", ".join(f"{name} {n}" for name, n in lengths.items())
        )
    if (run / "evaluation.json").exists():
        consolidated["evaluation"] = json.loads((run / "evaluation.json").read_text())
        curve = consolidated["evaluation"].get("ptapr", {}).get("curve")
        if curve:
            pio.write_theta_curve_csv(
                run / "plot_theta_curve.csv", curve["theta"], curve["ptar"],
                curve["ptap"], curve["f1"],
            )
            plot_files.append("plot_theta_curve.csv")
    if scores is not None:
        detection_flags = None if detection is None else detection.flags.tolist()
        label_flags = None if labels is None else labels.flags.tolist()
        pio.write_csv(
            run / "plot_timeline.csv", ("timestamp", "score", "flag", "label"),
            ((i,
              "" if math.isnan(s) else format(s, ".9g"),
              "" if detection is None else detection_flags[i],
              "" if labels is None else label_flags[i])
             for i, s in enumerate(scores.scores.tolist())),
        )
        plot_files.append("plot_timeline.csv")
    if not consolidated and not plot_files:
        raise ValidationError(f"{run}: no pipeline outputs found to report on")
    pio.write_json(run / "report.json", consolidated)
    pio.write_manifest(
        run / "report_manifest.json", {}, None,
        [run / f for f in plot_files + ["report.json"]],
    )
    click.echo(f"report: wrote report.json and {plot_files} in {run}")


def main():
    cli(prog_name="poakit")


if __name__ == "__main__":
    main()
