"""Pipeline driver: synth -> split -> forecast -> score -> detect -> evaluate -> sweep -> report.

Stages talk to each other only through files, so externally produced
forecasts can be dropped in at the `score` boundary. Every subcommand is
deterministic given its inputs (and seed).

Exit codes: 0 success, 2 validation error, 3 I/O error or out of memory,
4 numeric failure, each error with one line ``error[<category>]: <text>``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import os
import stat
import sys
import tempfile
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


class Stage(click.Command):
    """A subcommand whose outputs appear all together or not at all: the
    callback writes them into ``stage``, a fresh directory beside them, and
    returns its stdout message; only then do they replace their namesakes and
    the message print. An error moves nothing and becomes one error line."""

    def invoke(self, ctx):
        out = ctx.params.get("out_dir") or ctx.params.get("run_dir")
        target = Path(out) if out else Path(ctx.params["out_path"]).parent
        try:
            if not out and ctx.params["out_path"].endswith(os.sep):  # not a file name
                raise IsADirectoryError(f"{ctx.params['out_path']}: not a file path")
            base = next(d for d in (target, *target.parents) if d.exists())  # mkdir on success
            with tempfile.TemporaryDirectory(prefix=".poakit-", dir=base) as stage:
                message = ctx.invoke(self.callback, stage=Path(stage), **ctx.params)
                target.mkdir(parents=True, exist_ok=True)
                _publish(Path(stage), target)
        except (ValidationError, DataFormatError) as exc:
            raise CliError(str(exc), 2, "validation") from exc
        except MemoryError as exc:
            raise CliError(str(exc) or "out of memory", 3, "memory") from exc
        except OSError as exc:
            raise CliError(str(exc), 3, "io") from exc
        except (NumericError, FloatingPointError, ZeroDivisionError) as exc:
            raise CliError(str(exc), 4, "numeric") from exc
        click.echo(message)


def _publish(stage: Path, target: Path) -> None:
    """Move the staged files into ``target``, manifests last, unless one would
    replace what is not a regular file (a FIFO, device, directory or symlink)."""
    names = sorted(os.listdir(stage), key=lambda name: name.endswith("manifest.json"))
    for name in names:
        if os.path.lexists(target / name) and not stat.S_ISREG(os.lstat(target / name).st_mode):
            raise ValidationError(f"{target / name}: output exists and is not a regular file")
    for name in names:
        os.replace(stage / name, target / name)


class Number(click.ParamType):
    """click's INTEGER or FLOAT read under the CSV number grammar
    (``core.csv_number``): '1_0' and non-ASCII digits are usage errors."""

    def __init__(self, parse):
        self.parse = parse
        self.name = {int: "integer", float: "float"}[parse]

    def convert(self, value, param, ctx):
        try:
            if isinstance(value, str):
                return core.csv_number(value, self.parse)
            return self.parse(value)  # a default
        except ValueError:
            self.fail(f"{value!r} is not a valid {self.name}.", param, ctx)


@click.group()
def cli():
    """Precursor-of-anomaly detection pipeline and evaluation metrics."""


cli.command_class = Stage


def _resolve_seed(flag_seed: int | None, config_seed: int) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return core.csv_number(env, int)
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return config_seed


@cli.command()
@click.argument("out_dir", type=click.Path(file_okay=False, path_type=Path))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Synth config JSON; defaults to the built-in benchmark.")
@click.option("--seed", type=Number(int), default=None,
              help=f"Override the config seed (also via ${SEED_ENV_VAR}).")
def synth(stage, out_dir, config_path, seed):
    """Generate a synthetic train/test/labels dataset with precursor truth."""
    if config_path is None:
        cfg = synth_mod.default_config()
    else:
        cfg = synth_mod.config_from_dict(pio.read_json_object(config_path))
    cfg = dataclasses.replace(cfg, seed=_resolve_seed(seed, cfg.seed))
    train, test, labels, truth = synth_mod.generate(cfg)
    pio.write_series_csv(stage / "train.csv", train)
    pio.write_series_csv(stage / "test.csv", test)
    pio.write_labels_csv(stage / "labels.csv", labels)
    pio.write_segments_csv(stage / "precursor_truth.csv", truth)
    pio.write_manifest(stage / "manifest.json", synth_mod.config_to_dict(cfg), cfg.seed,
                       list(stage.iterdir()))
    return f"synth: wrote train.csv, test.csv, labels.csv, precursor_truth.csv to {out_dir}"


@cli.command()
@click.argument("series_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False, path_type=Path))
@click.option("--train-frac", type=Number(float), default=0.7, show_default=True)
def split(stage, series_path, out_dir, train_frac):
    """Chronologically split a series into train/valid parts."""
    series = pio.read_series_csv(series_path)
    train, valid = pio.chronological_split(series, train_frac)
    pio.write_series_csv(stage / "train.csv", train)
    pio.write_series_csv(stage / "valid.csv", valid)
    return f"split: {len(train)}/{len(valid)} rows -> {out_dir}"


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


def _forecast(fitted, windows, horizon, series_path) -> "fc.ForecastCube":
    """forecast_ensembles over one split; a forecaster whose output overflows
    to a non-finite value is a numeric error naming the split's file."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned of
            return fc.forecast_ensembles(fitted, windows, horizon)
    except fc.NonFiniteForecast as exc:
        raise NumericError(f"{series_path}: {exc}") from exc


@cli.command()
@click.argument("train_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("valid_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False, path_type=Path))
@click.option("--test", "test_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Series to emit inference forecasts for.")
@click.option("--members", default=DEFAULT_MEMBERS, show_default=True,
              help="Comma-separated specs, e.g. 'persistence,ar_ols:4'.")
@click.option("--top-k", type=Number(int), default=5, show_default=True)
@click.option("--criterion", type=click.Choice(["mse", "mae"]), default="mse",
              show_default=True)
@click.option("--input-len", type=Number(int), default=100, show_default=True)
@click.option("--horizon", type=Number(int), default=24, show_default=True)
@click.option("--stride", type=Number(int), default=1, show_default=True)
@click.option("--standardize/--no-standardize", default=False, show_default=True,
              help="Per-variable z-scaling (statistics fit on TRAIN) before "
                   "fitting; forecasts are emitted in the scaled space.")
def forecast(stage, train_path, valid_path, out_dir, test_path, members, top_k, criterion,
             input_len, horizon, stride, standardize):
    """Fit members on TRAIN, rank them on VALID, emit top-K ensemble forecasts."""
    paths = [train_path, valid_path, *([test_path] if test_path is not None else [])]
    series = [pio.read_series_csv(path) for path in paths]
    names = series[0].variable_names  # a model's coefficients are fit per variable, in order
    for path, other in zip(paths[1:], series[1:]):
        if other.variable_names != names:
            raise ValidationError(
                f"{path}: variables {other.variable_names} differ from {train_path}'s {names}")
    if standardize:
        mu = series[0].values.mean(axis=0)
        sd = np.maximum(series[0].values.std(axis=0), 1e-12)
        series = [core.TimeSeries(s.timestamps, (s.values - mu) / sd, names) for s in series]
    train, valid, *test = series
    specs = _parse_members(members)
    cfg = fc.WindowConfig(input_len, horizon, stride)
    test_windows = fc.make_windows(test[0], cfg, with_targets=False) if test else None
    fitted = [fc.fit(spec, train) for spec in specs]
    # every member forecasts the validation windows once: members are ranked on the cube written
    windows = fc.make_windows(valid, cfg, with_targets=True)
    cube = _forecast(fitted, windows, horizon, valid_path)
    scores = fc.evaluate_members(dict(zip(cube.member_ids, cube.predictions.swapaxes(0, 1))),
                                 np.stack([w.target for w in windows]))
    del windows
    selected = set(fc.select_top_k(scores, top_k, criterion))
    keep = [j for j, member_id in enumerate(cube.member_ids) if member_id in selected]
    cube = fc.ForecastCube(cube.predictions[:, keep], cube.window_ids, cube.origins,
                           tuple(cube.member_ids[j] for j in keep))

    pio.write_csv(
        stage / "scoreboard.csv", ("member_id", "mse", "mae", "selected"),
        ((s.member_id, format(s.mse, core.FLOAT_FMT), format(s.mae, core.FLOAT_FMT),
          int(s.member_id in selected))
         for s in scores),
    )
    fc.write_forecast_records(stage / "valid_forecasts.csv", cube)
    del cube  # before the test split is forecast
    if test_windows is not None:
        chosen = [m for m in fitted if m.member_id in selected]
        fc.write_forecast_records(stage / "test_forecasts.csv",
                                  _forecast(chosen, test_windows, horizon, test_path))
    pio.write_manifest(
        stage / "manifest.json",
        {"members": members, "top_k": top_k, "criterion": criterion,
         "input_len": input_len, "horizon": horizon, "stride": stride,
         "standardize": standardize, "selected": sorted(selected)},
        None, list(stage.iterdir()))
    notes = [f"forecast: note: {model.member_id}: {note}"
             for model in fitted for note in model.fit_report]
    return "\n".join([*notes, f"forecast: selected {sorted(selected)} -> {out_dir}"])


@cli.command()
@click.argument("forecasts_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("valid_forecasts_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_path", type=click.Path(dir_okay=False))
@click.option("--length", type=Number(int), default=None,
              help="Test series length; defaults to max window origin + 1.")
@click.option("--agg", type=click.Choice(["mean", "max"]), default="mean",
              show_default=True, help="Variable aggregation.")
@click.option("--collate", type=click.Choice(["max", "latest", "earliest"]),
              default="max", show_default=True, help="Overlapping-window resolution.")
@click.option("--normalize/--no-normalize", "do_normalize", default=True,
              show_default=True, help="Z-score against validation statistics.")
@click.option("--eps-sigma", type=Number(float), default=1e-8,  # unc.DEFAULT_EPS_SIGMA
              show_default=True)
def score(stage, forecasts_path, valid_forecasts_path, out_path, length, agg, collate,
          do_normalize, eps_sigma):
    """Turn ensemble forecasts into a per-timestamp precursor score timeline."""
    test_ens = fc.ingest_external_forecasts(forecasts_path)
    valid_ens = fc.ingest_external_forecasts(valid_forecasts_path)
    timeline = unc.score_timeline(
        test_ens, valid_ens, series_len=length, agg=agg, collate=collate,
        eps_sigma=eps_sigma, normalize_scores=do_normalize,
        sources=(forecasts_path, valid_forecasts_path),
    )
    pio.write_scores(stage / Path(out_path).name, timeline)
    n = int(timeline.defined.sum())
    return f"score: {n}/{len(timeline)} timestamps scored -> {out_path}"


METRIC_DEFAULTS = mx.MetricParams()


def _metric_options(func):
    for option in reversed([
        click.option("--alpha", type=Number(float), default=METRIC_DEFAULTS.alpha,
                     show_default="1/3"),
        click.option("--beta", type=Number(float), default=METRIC_DEFAULTS.beta,
                     show_default="1/3"),
        click.option("--gamma", type=Number(float), default=METRIC_DEFAULTS.gamma,
                     show_default="1/3"),
        click.option("--delta", type=Number(int), default=METRIC_DEFAULTS.delta,
                     show_default=True, help="Ambiguous trailing window length."),
        click.option("--epsilon", type=Number(int), default=METRIC_DEFAULTS.epsilon,
                     show_default=True, help="Optimal lead time of the early reward."),
        click.option("--k", type=Number(float), default=METRIC_DEFAULTS.k, show_default=True,
                     help="Early-reward decay sharpness."),
    ]):
        func = option(func)
    return func


def _parse_detect_metric(metric: str, labels, params: mx.MetricParams):
    """Build the Detection -> F1 callback for the threshold search."""
    if metric == "point-f1":
        def evaluate(det):
            return mx.pointwise_prf(det.flags, labels.flags)[2]

        return evaluate
    if metric.startswith("ptapr-f1@"):
        try:
            theta = core.csv_number(metric.split("@", 1)[1])
        except ValueError:
            raise ValidationError(f"bad theta in metric {metric!r}") from None
        params = dataclasses.replace(params, theta=theta)

        def evaluate(det):
            seg = detect_mod.split_precursor_prediction(det, labels.flags, params.delta)
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
@click.option("--grid-n", type=Number(int), default=detect_mod.DEFAULT_GRID_SIZE,
              show_default=True, help="Quantile count of the threshold grid.")
@click.option("--metric", default="ptapr-f1@0", show_default=True,
              help="Search objective: 'point-f1' or 'ptapr-f1@<theta>'.")
@click.option("--search-scores", "search_scores_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Run the threshold search on this held-out scores file "
                   "instead of SCORES (requires --search-labels).")
@click.option("--search-labels", "search_labels_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@_metric_options
def detect_cmd(stage, scores_path, labels_path, out_path, grid_n, metric,
               search_scores_path, search_labels_path, **metric_options):
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
    else:
        search_scores, search_labels = scores, labels
    grid = detect_mod.default_grid(search_scores, grid_n)
    evaluate = _parse_detect_metric(metric, search_labels, mx.MetricParams(**metric_options))
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
    pio.write_detection(stage / Path(out_path).name, detection, meta)
    warning = "detect: warning: every candidate threshold left F1 undefined\n"
    return (warning if result.all_undefined else "") + (
        f"detect: threshold {result.threshold:.6g} (search F1 {result.f1:.4f}) -> {out_path}")


def _theta_points(n: int) -> np.ndarray:
    """``--theta-grid``: n evenly spaced overlap thresholds over [0, 1]."""
    if n < 1:
        raise ValidationError(f"--theta-grid must be >= 1, got {n}")
    return np.linspace(0.0, 1.0, core.allocatable(n))


def _evaluation_payload(detection, labels, params, metrics_wanted, theta_grid_n):
    segments = detect_mod.split_precursor_prediction(detection, labels.flags, params.delta)
    payload: dict = {"params": dataclasses.asdict(params)}
    thetas = _theta_points(theta_grid_n)
    if "ptapr" in metrics_wanted:
        report = mx.ptapr_report(segments, params)
        sweep = mx.ptapr_theta_sweep(report, thetas)
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
        at_theta = mx.tapr(segments, params)
        tapr_sweep = mx.ptapr_theta_sweep(at_theta, thetas)
        payload["tapr"] = {
            "f1_0": tapr_sweep.f1_at_0,
            "f1_1": tapr_sweep.f1_at_1,
            "auc": tapr_sweep.auc,
            "at_theta": {
                "tar": at_theta.ptar, "tap": at_theta.ptap, "f1": at_theta.f1,
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
@click.argument("out_dir", type=click.Path(file_okay=False, path_type=Path))
@click.option("--metrics", default="ptapr,tapr,pak", show_default=True)
@click.option("--theta", type=Number(float), default=METRIC_DEFAULTS.theta, show_default=True,
              help="Report-level overlap threshold.")
@click.option("--theta-grid", type=Number(int), default=mx.DEFAULT_THETA_GRID_SIZE,
              show_default=True)
@_metric_options
@click.option("--tapr-alpha", type=Number(float), default=METRIC_DEFAULTS.tapr_alpha,
              show_default=True)
def evaluate(stage, detection_path, labels_path, out_dir, metrics, theta_grid, **metric_options):
    """Full metric report (PTaPR / TaPR / PA%K) for a stored detection."""
    detection = pio.read_detection(detection_path)
    labels = pio.read_labels_csv(labels_path)
    wanted = {m.strip() for m in metrics.split(",") if m.strip()}
    if not wanted:
        raise ValidationError("no metrics given")
    unknown = wanted - {"ptapr", "tapr", "pak"}
    if unknown:
        raise ValidationError(f"unknown metrics: {sorted(unknown)}")
    params = mx.MetricParams(**metric_options)  # --theta and --tapr-alpha among them
    payload = _evaluation_payload(detection, labels, params, wanted, theta_grid)
    pio.write_json(stage / "evaluation.json", payload)
    if "ptapr" in payload:
        curve = payload["ptapr"]["curve"]
        pio.write_theta_curve_csv(
            stage / "theta_curve.csv", curve["theta"], curve["ptar"], curve["ptap"],
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
    return "evaluate: " + "; ".join(summary) + f" -> {out_dir}"


@cli.command()
@click.argument("detection_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("labels_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_path", type=click.Path(dir_okay=False))
@click.option("--param", type=click.Choice(["k", "epsilon"]), required=True)
@click.option("--values", required=True, help="Comma-separated parameter values.")
@click.option("--theta-grid", type=Number(int), default=mx.DEFAULT_THETA_GRID_SIZE,
              show_default=True)
@_metric_options
def sweep(stage, detection_path, labels_path, out_path, param, values, theta_grid,
          **metric_options):
    """Sensitivity sweep of the early-reward parameters (k or epsilon)."""
    detection = pio.read_detection(detection_path)
    labels = pio.read_labels_csv(labels_path)
    segments = detect_mod.split_precursor_prediction(detection, labels.flags,
                                                     metric_options["delta"])

    def number(text):  # an epsilon written as an integer is read exactly, not through float
        try:
            return core.csv_number(text, int if param == "epsilon" else float)
        except ValueError:
            return core.csv_number(text)

    try:
        parsed = [number(v) for v in values.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse --values {values!r}") from None
    if not parsed:
        raise ValidationError("no sweep values given")
    if param == "epsilon" and not all(isinstance(v, int) or v.is_integer() for v in parsed):
        raise ValidationError(f"epsilon values must be integers, got {values!r}")
    thetas = _theta_points(theta_grid)
    base = mx.MetricParams(**metric_options)
    cast = float if param == "k" else int
    rows = []
    for value in map(cast, parsed):
        params = dataclasses.replace(base, **{param: value})
        s = mx.ptapr_theta_sweep(mx.ptapr_report(segments, params), thetas)
        rows.append((value, s.f1_at_0, s.f1_at_1, s.auc))
    # each row is labelled with the value it ran: an epsilon is written whole
    pio.write_csv(stage / Path(out_path).name, (param, "f1_0", "f1_1", "auc"),
                  ([str(v) if isinstance(v, int) else format(v, core.FLOAT_FMT) for v in row]
                   for row in rows))
    return f"sweep: {len(rows)} {param} values -> {out_path}"


@cli.command()
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
def report(stage, run_dir):
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
        consolidated["detection"] = pio.read_json_object(run / "detection.csv.meta.json")
    lengths = {name: len(table) for name, table in
               (("scores", scores), ("detection", detection), ("labels", labels))
               if table is not None}
    if len(set(lengths.values())) > 1:
        raise ValidationError(
            f"{run}: run files differ in length: "
            + ", ".join(f"{name} {n}" for name, n in lengths.items())
        )
    if (run / "evaluation.json").exists():
        consolidated["evaluation"] = pio.read_json_object(run / "evaluation.json")
    if scores is not None:
        detection_flags = None if detection is None else detection.flags.tolist()
        label_flags = None if labels is None else labels.flags.tolist()
        pio.write_csv(
            stage / "plot_timeline.csv", ("timestamp", "score", "flag", "label"),
            ((i,
              "" if math.isnan(s) else format(s, core.FLOAT_FMT),
              "" if detection is None else detection_flags[i],
              "" if labels is None else label_flags[i])
             for i, s in enumerate(scores.scores.tolist())),
        )
        plot_files.append("plot_timeline.csv")
    if not consolidated and not plot_files:
        raise ValidationError(f"{run}: no pipeline outputs found to report on")
    pio.write_json(stage / "report.json", consolidated)
    pio.write_manifest(stage / "report_manifest.json", {}, None, list(stage.iterdir()))
    return f"report: wrote report.json and {plot_files} in {run}"


def main():
    cli(prog_name="poakit")


if __name__ == "__main__":
    main()
