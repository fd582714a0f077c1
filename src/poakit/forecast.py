"""Sliding windows, lightweight forecasters, ensemble selection, file ingest.

Multi-step forecasts are produced recursively for the one-step models
(autoregressive, smoothing, moving average) and by direct repetition for
persistence / seasonal naive. Externally produced forecasts can enter the
pipeline through :func:`ingest_external_forecasts` instead, as long as they
follow the record format documented there.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from poakit.core import DataFormatError, TimeSeries, ValidationError, strict_int

FORECASTER_KINDS = (
    "persistence",
    "seasonal_naive",
    "moving_average",
    "ar_ols",
    "exp_smoothing",
    "holt_linear",
)


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window geometry: input length, horizon length, stride."""

    input_len: int
    horizon_len: int
    stride: int = 1

    def __post_init__(self):
        if self.input_len < 1 or self.horizon_len < 1 or self.stride < 1:
            raise ValidationError(
                f"window config fields must be >= 1, got {self}"
            )


@dataclass(frozen=True)
class WindowPair:
    """One window: input ends at row ``origin``; target covers origin+1..origin+L_y."""

    window_id: int
    origin: int
    input: np.ndarray
    target: np.ndarray | None = None


@dataclass(frozen=True)
class ForecasterSpec:
    """Forecaster kind plus its hyperparameters (only the relevant ones set)."""

    kind: str
    period: int | None = None
    width: int | None = None
    order: int | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in FORECASTER_KINDS:
            raise ValidationError(
                f"unknown forecaster kind {self.kind!r}; choose from {FORECASTER_KINDS}"
            )
        need = {
            "persistence": (),
            "seasonal_naive": ("period",),
            "moving_average": ("width",),
            "ar_ols": ("order",),
            "exp_smoothing": ("alpha",),
            "holt_linear": ("alpha", "beta"),
        }[self.kind]
        for name in ("period", "width", "order"):
            value = getattr(self, name)
            if name in need:
                if value is None or value < 1:
                    raise ValidationError(f"{self.kind} requires {name} >= 1")
            elif value is not None:
                raise ValidationError(f"{self.kind} does not take {name}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if name in need:
                if value is None or not (0.0 < value <= 1.0):
                    raise ValidationError(f"{self.kind} requires {name} in (0, 1]")
            elif value is not None:
                raise ValidationError(f"{self.kind} does not take {name}")

    def _parts(self) -> list[str]:
        parts = [self.kind]
        for name in ("period", "width", "order", "alpha", "beta"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{value:g}" if isinstance(value, float) else str(value))
        return parts

    @property
    def member_id(self) -> str:
        return "_".join(self._parts())

    @property
    def spec_string(self) -> str:
        """Colon-separated form accepted by :meth:`parse`."""
        return ":".join(self._parts())

    @classmethod
    def parse(cls, text: str) -> "ForecasterSpec":
        """Parse a colon-separated spec, e.g. ``ar_ols:4`` or ``holt_linear:0.3:0.1``."""
        parts = text.strip().split(":")
        kind, args = parts[0], parts[1:]
        try:
            if kind == "persistence":
                return cls(kind)
            if kind == "seasonal_naive":
                return cls(kind, period=int(args[0]))
            if kind == "moving_average":
                return cls(kind, width=int(args[0]))
            if kind == "ar_ols":
                return cls(kind, order=int(args[0]))
            if kind == "exp_smoothing":
                return cls(kind, alpha=float(args[0]))
            if kind == "holt_linear":
                return cls(kind, alpha=float(args[0]), beta=float(args[1]))
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"cannot parse forecaster spec {text!r}: {exc}") from exc
        raise ValidationError(f"unknown forecaster kind in {text!r}")


def default_member_specs() -> list[ForecasterSpec]:
    """Heterogeneous default ensemble pool (six members)."""
    return [
        ForecasterSpec("persistence"),
        ForecasterSpec("seasonal_naive", period=24),
        ForecasterSpec("moving_average", width=12),
        ForecasterSpec("ar_ols", order=4),
        ForecasterSpec("exp_smoothing", alpha=0.3),
        ForecasterSpec("holt_linear", alpha=0.3, beta=0.1),
    ]


@dataclass(frozen=True)
class FittedForecaster:
    spec: ForecasterSpec
    n_variables: int
    # ar_ols only: (order+1) x c, row 0 = intercept, row j = coefficient of lag j
    coefficients: np.ndarray | None = None
    fit_report: tuple[str, ...] = field(default=())

    @property
    def member_id(self) -> str:
        return self.spec.member_id


@dataclass(frozen=True)
class EnsembleForecast:
    """Stacked member predictions for one window: M x L_y x c."""

    window_id: int
    origin: int
    predictions: np.ndarray
    member_ids: tuple[str, ...]

    def __post_init__(self):
        preds = np.asarray(self.predictions, dtype=np.float64)
        ids = tuple(self.member_ids)
        if preds.ndim != 3:
            raise ValidationError("ensemble predictions must be M x L_y x c")
        if preds.shape[0] != len(ids):
            raise ValidationError("one member_id per prediction slab required")
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate member_ids: {self.member_ids}")
        if not np.isfinite(preds).all():
            raise ValidationError(f"non-finite prediction in window {self.window_id}")
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "member_ids", ids)

    @property
    def n_members(self) -> int:
        return self.predictions.shape[0]


@dataclass(frozen=True)
class ForecastScore:
    member_id: str
    mse: float
    mae: float


def make_windows(
    series: TimeSeries, cfg: WindowConfig, with_targets: bool
) -> list[WindowPair]:
    """Cut sliding windows; with targets, only origins whose horizon fits.

    Window ids increment from 0 in origin order. With stride 1 and targets the
    window count is T - input_len - horizon_len + 1. Without targets the final
    origin T - 1 is always included, whatever the stride: ``score`` takes the
    series length from the largest origin.
    """
    T = len(series)
    required = cfg.input_len + cfg.horizon_len if with_targets else cfg.input_len
    if T < required:
        raise ValidationError(
            f"insufficient length: need at least {required} rows "
            f"({'input+horizon' if with_targets else 'input'}), got {T}"
        )
    last_origin = T - 1 - cfg.horizon_len if with_targets else T - 1
    vals = series.values
    windows = []
    origins = list(range(cfg.input_len - 1, last_origin + 1, cfg.stride))
    if origins[-1] != last_origin and not with_targets:
        origins.append(last_origin)
    for wid, origin in enumerate(origins):
        target = None
        if with_targets:
            target = vals[origin + 1 : origin + 1 + cfg.horizon_len]
        windows.append(
            WindowPair(
                window_id=wid,
                origin=origin,
                input=vals[origin - cfg.input_len + 1 : origin + 1],
                target=target,
            )
        )
    return windows


def fit(spec: ForecasterSpec, train: TimeSeries) -> FittedForecaster:
    """Fit one forecaster; deterministic, per-variable where applicable.

    A rank-deficient least-squares system for ar_ols falls back to persistence
    for the affected variable, noted in the fit report.
    """
    n, c = train.values.shape
    minimum = {
        "persistence": 1,
        "seasonal_naive": spec.period or 1,
        "moving_average": spec.width or 1,
        "ar_ols": 2 * (spec.order or 1) + 1,
        "exp_smoothing": 1,
        "holt_linear": 2,
    }[spec.kind]
    if n < minimum:
        raise ValidationError(
            f"{spec.member_id}: training series too short, need >= {minimum} rows, got {n}"
        )
    coefficients = None
    report: list[str] = []
    if spec.kind == "ar_ols":
        p = spec.order
        coefficients = np.zeros((p + 1, c))
        x = train.values
        design = np.ones((n - p, p + 1))
        for v in range(c):
            for j in range(1, p + 1):
                design[:, j] = x[p - j : n - j, v]
            y = x[p:, v]
            coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
            if rank < p + 1 or not np.all(np.isfinite(coef)):
                # persistence as one-step AR: intercept 0, lag-1 weight 1
                coef = np.zeros(p + 1)
                coef[1] = 1.0
                report.append(f"variable {v}: singular system, fell back to persistence")
            coefficients[:, v] = coef
    return FittedForecaster(
        spec=spec,
        n_variables=c,
        coefficients=coefficients,
        fit_report=tuple(report),
    )


def predict_batch(model: FittedForecaster, inputs: np.ndarray, horizon: int) -> np.ndarray:
    """Vectorized forecasts for a W x L_x x c batch of input windows."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ValidationError("inputs must be W x L_x x c")
    W, L_x, c = inputs.shape
    if c != model.n_variables:
        raise ValidationError(
            f"{model.member_id}: fitted for {model.n_variables} variables, got {c}"
        )
    if not np.all(np.isfinite(inputs)):
        raise ValidationError("non-finite value in forecast input")
    spec = model.spec
    kind = spec.kind

    if kind == "persistence":
        return np.repeat(inputs[:, -1:, :], horizon, axis=1)

    if kind == "seasonal_naive":
        m = spec.period
        if L_x < m:
            raise ValidationError(
                f"{model.member_id}: input window shorter than period {m}"
            )
        idx = L_x - m + (np.arange(horizon) % m)
        return inputs[:, idx, :]

    if kind == "moving_average":
        w = spec.width
        if L_x < w:
            raise ValidationError(
                f"{model.member_id}: input window shorter than width {w}"
            )
        # The last w inputs, then the forecasts. Each mean runs along axis 1
        # of a W x w x c slice: numpy's summation order, and so every output
        # bit, depends on that layout (it sums pairwise when c == 1).
        buf = np.empty((W, w + horizon, c))
        buf[:, :w] = inputs[:, -w:]
        for h in range(horizon):
            buf[:, w + h] = buf[:, h : w + h].mean(axis=1)
        return buf[:, w:].copy()

    if kind == "ar_ols":
        p = spec.order
        if L_x < p:
            raise ValidationError(f"{model.member_id}: input window shorter than order {p}")
        coef = model.coefficients  # (p+1) x c
        # The last p inputs, then the forecasts, time-major: the recursion is
        # elementwise, so every step reads and writes contiguous W x c slabs.
        buf = np.empty((p + horizon, W, c))
        buf[:p] = inputs[:, -p:].transpose(1, 0, 2)
        for h in range(p, p + horizon):
            nxt = buf[h]
            nxt[:] = coef[0]
            for j in range(1, p + 1):
                nxt += coef[j] * buf[h - j]
        return buf[p:].transpose(1, 0, 2).copy()

    if kind == "exp_smoothing":
        a = spec.alpha
        level = inputs[:, 0, :].copy()
        for t in range(1, L_x):
            level = a * inputs[:, t, :] + (1.0 - a) * level
        return np.repeat(level[:, None, :], horizon, axis=1)

    if kind == "holt_linear":
        a, b = spec.alpha, spec.beta
        if L_x < 2:
            raise ValidationError(f"{model.member_id}: needs input length >= 2")
        level = inputs[:, 0, :].copy()
        trend = inputs[:, 1, :] - inputs[:, 0, :]
        for t in range(1, L_x):
            prev = level
            level = a * inputs[:, t, :] + (1.0 - a) * (level + trend)
            trend = b * (level - prev) + (1.0 - b) * trend
        steps = np.arange(1, horizon + 1)[None, :, None]
        return level[:, None, :] + steps * trend[:, None, :]

    raise ValidationError(f"unknown forecaster kind {kind!r}")


def forecast_ensembles(
    members: list[FittedForecaster], windows: list[WindowPair], horizon: int
) -> list[EnsembleForecast]:
    """Run every member over every window; members ordered by member_id."""
    if not windows:
        return []
    ordered = sorted(members, key=lambda m: m.member_id)
    ids = tuple(m.member_id for m in ordered)
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate member_ids in ensemble: {ids}")
    inputs = np.stack([w.input for w in windows])
    slabs = [predict_batch(m, inputs, horizon) for m in ordered]
    stacked = np.stack(slabs, axis=1)  # W x M x L_y x c
    return [
        EnsembleForecast(
            window_id=w.window_id,
            origin=w.origin,
            predictions=stacked[i],
            member_ids=ids,
        )
        for i, w in enumerate(windows)
    ]


def evaluate_members(
    predictions: dict[str, np.ndarray], targets: np.ndarray
) -> list[ForecastScore]:
    """MSE/MAE per member over all (window, step, variable) cells.

    ``predictions`` maps member_id to a W x L_y x c array aligned with
    ``targets``. Scores come back sorted by member_id.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 3 or targets.shape[0] < 1:
        raise ValidationError("need at least one validation window")
    scores = []
    for member_id in sorted(predictions):
        pred = np.asarray(predictions[member_id], dtype=np.float64)
        if pred.shape != targets.shape:
            raise ValidationError(
                f"{member_id}: prediction shape {pred.shape} != target shape {targets.shape}"
            )
        err = pred - targets
        scores.append(
            ForecastScore(
                member_id=member_id,
                mse=float(np.mean(err**2)),
                mae=float(np.mean(np.abs(err))),
            )
        )
    return scores


def select_top_k(
    scores: list[ForecastScore], k: int, criterion: str = "mse"
) -> list[str]:
    """The k member_ids with smallest error; ties broken lexicographically."""
    if criterion not in ("mse", "mae"):
        raise ValidationError(f"criterion must be 'mse' or 'mae', got {criterion!r}")
    ids = [s.member_id for s in scores]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate member_ids in scores")
    if not 2 <= k <= len(scores):
        raise ValidationError(
            f"k must be in [2, {len(scores)}] (uncertainty needs >= 2 members), got {k}"
        )
    ranked = sorted(scores, key=lambda s: (getattr(s, criterion), s.member_id))
    return [s.member_id for s in ranked[:k]]


_RECORD_FIELDS = ("window_id", "origin", "member_id", "step", "variable", "value")
# numpy's int64 parser rejects "1.5" and "3.0" just as int() does
_CSV_DTYPE = np.dtype([(f, np.float64 if f == "value" else np.int64) for f in _RECORD_FIELDS])


def _csv_field(text: str) -> str:
    """``text`` as one field of a ``csv.writer`` row (quoted where needed)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])  # the row ends ",\r\n"
    return buf.getvalue()[:-3]


def _record_template(member_ids: tuple[str, ...], shape: tuple, csv_format: bool) -> str:
    """``str.format`` template for one window's records.

    Field 0 is the window's record head (see :func:`_record_head`) and field
    1 + k the k-th value of its flattened M x L_y x c predictions.
    """
    parts = []
    k = 1
    for member in member_ids:
        quoted = _csv_field(member) if csv_format else json.dumps(member)
        quoted = quoted.replace("{", "{{").replace("}", "}}")
        for step in range(1, shape[1] + 1):
            for var in range(shape[2]):
                if csv_format:
                    parts.append(f"{{0}}{quoted},{step},{var},{{{k}:.9g}}\r\n")
                else:
                    parts.append(f'{{0}}{quoted}, "step": {step}, "variable": {var}, '
                                 f'"value": {{{k}!r}}}}}}\n')
                k += 1
    return "".join(parts)


def _record_head(ens: EnsembleForecast, csv_format: bool) -> str:
    """What every record of the window writes before its member id."""
    if csv_format:
        return f"{ens.window_id},{ens.origin},"
    return f'{{"window_id": {ens.window_id}, "origin": {ens.origin}, "member_id": '


def write_forecast_records(path, ensembles: list[EnsembleForecast]) -> None:
    """Write forecasts as flat records (CSV or NDJSON by extension).

    One record per (window, member, step, variable) cell; step is 1-based,
    variable 0-based. CSV rows are what ``csv.writer`` writes: member ids
    quoted where needed, CRLF line endings, values at 9 significant digits.
    NDJSON lines are what ``json.dumps`` writes, values at full precision.
    """
    path = str(path)
    if path.endswith(".csv"):
        csv_format, header = True, ",".join(_RECORD_FIELDS) + "\r\n"
    elif path.endswith((".ndjson", ".jsonl")):
        csv_format, header = False, ""
    else:
        raise ValidationError(f"unsupported forecast file extension: {path}")
    templates: dict[tuple, str] = {}
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for ens in sorted(ensembles, key=lambda e: e.window_id):
            key = (ens.member_ids, ens.predictions.shape)
            if key not in templates:
                templates[key] = _record_template(*key, csv_format)
            fh.write(templates[key].format(
                _record_head(ens, csv_format), *ens.predictions.ravel().tolist()
            ))


def _parse_record(raw: dict, line_no: int) -> tuple:
    try:
        return (
            strict_int(raw["window_id"]),
            strict_int(raw["origin"]),
            str(raw["member_id"]),
            strict_int(raw["step"]),
            strict_int(raw["variable"]),
            float(raw["value"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"line {line_no}: bad forecast record ({exc})") from exc


def _member_codes() -> defaultdict:
    """Member id -> integer code, numbering each new id on first lookup."""
    codes: defaultdict = defaultdict()
    codes.default_factory = codes.__len__
    return codes


def _record_columns(path: str, records) -> tuple:
    """Columns (window_id, origin, member code, step, variable, value, names)."""
    records = list(records)
    if not records:
        raise DataFormatError(f"{path}: no forecast records found")
    window_id, origin, member, step, variable, value = zip(*records)
    codes = _member_codes()
    member = [codes[m] for m in member]
    try:
        ints = [np.array(col, dtype=np.int64) for col in (window_id, origin, member, step, variable)]
    except OverflowError:
        raise DataFormatError(f"{path}: forecast record integer outside the int64 range") from None
    return (*ints, np.array(value, dtype=np.float64), list(codes))


def _csv_records(path: str):
    with open(path, newline="") as fh:
        for line_no, raw in enumerate(csv.DictReader(fh), start=2):
            yield _parse_record(raw, line_no)


def _ndjson_records(path: str):
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"line {line_no}: invalid JSON ({exc})") from exc
            yield _parse_record(raw, line_no)


def _read_csv_columns(path: str) -> tuple:
    """Columns of a record CSV, found by header name and parsed in one pass."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataFormatError(f"{path}: empty forecast file")
        missing = set(_RECORD_FIELDS) - set(header)
        if missing:
            raise DataFormatError(f"{path}: header missing columns {sorted(missing)}")
        column = {name: i for i, name in enumerate(header)}  # last one wins, as in DictReader
        codes = _member_codes()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header-only file
                table = np.loadtxt(
                    fh, dtype=_CSV_DTYPE, delimiter=",", quotechar='"', comments=None,
                    usecols=[column[f] for f in _RECORD_FIELDS],
                    converters={column["member_id"]: codes.__getitem__}, ndmin=1,
                )
        except ValueError:
            # The per-record parse names the first bad line. It also accepts the
            # few spellings int()/float() take and numpy does not, such as "1_000".
            return _record_columns(path, _csv_records(path))
    if table.size == 0:
        raise DataFormatError(f"{path}: no forecast records found")
    return (*(table[f] for f in _RECORD_FIELDS), list(codes))


def _raise_first_error(window_id, origin, member, step, variable, names) -> NoReturn:
    """Raise the error of the first bad record, else of the first incomplete window.

    Per-record errors, in order of precedence within a record: step/variable
    out of range, a cell already seen, an origin other than the one the
    window's first record gave.
    """
    windows, first, w_idx = np.unique(window_id, return_index=True, return_inverse=True)
    n = step.size
    records = np.arange(n)
    order = np.lexsort((variable, step, member, window_id))  # stable: file order per cell
    cells = np.stack([window_id, member, step, variable])[:, order]
    repeat = np.concatenate([[False], (cells[:, 1:] == cells[:, :-1]).all(axis=0)])
    first_seen = np.empty(n, dtype=np.int64)
    first_seen[order] = order[np.maximum.accumulate(np.where(repeat, 0, records))]
    bad_range = (step < 1) | (variable < 0)
    duplicate = first_seen != records
    window_origin = origin[first][w_idx]
    bad = bad_range | duplicate | (origin != window_origin)
    if bad.any():
        r = int(np.argmax(bad))
        wid, s, v = int(window_id[r]), int(step[r]), int(variable[r])
        if bad_range[r]:
            raise DataFormatError(
                f"record {r + 1}: step must be >= 1 and variable >= 0, got ({s}, {v})"
            )
        if duplicate[r]:
            raise DataFormatError(
                f"record {r + 1}: duplicate cell window={wid} member={names[member[r]]!r} "
                f"step={s} variable={v} (first seen at record {first_seen[r] + 1})"
            )
        raise DataFormatError(
            f"record {r + 1}: window {wid} has conflicting origins "
            f"{int(window_origin[r])} and {int(origin[r])}"
        )
    members = sorted(names)
    L_y, c = int(step.max()), int(variable.max()) + 1
    expected = len(members) * L_y * c
    counts = np.bincount(w_idx, minlength=windows.size)
    w = int(np.flatnonzero(counts != expected)[0])
    mine = w_idx == w
    present = set(zip((names[m] for m in member[mine]), step[mine].tolist(),
                      variable[mine].tolist()))
    grid = itertools.product(members, range(1, L_y + 1), range(c))
    missing = list(itertools.islice((cell for cell in grid if cell not in present), 3))
    raise DataFormatError(
        f"window {int(windows[w])}: expected {expected} cells "
        f"({len(members)} members x {L_y} steps x {c} variables), got "
        f"{int(counts[w])}; first missing: {missing}"
    )


def ingest_external_forecasts(path) -> list[EnsembleForecast]:
    """Read forecast records and group them into per-window ensembles.

    Every (member, step, variable) cell must appear exactly once per window
    and all windows must share the same member set, horizon and variable
    count. Format auto-detected from the extension (.csv vs .ndjson/.jsonl);
    CSV columns are found by header name.
    """
    path = str(path)
    if path.endswith(".csv"):
        columns = _read_csv_columns(path)
    elif path.endswith((".ndjson", ".jsonl")):
        columns = _record_columns(path, _ndjson_records(path))
    else:
        raise ValidationError(f"unsupported forecast file extension: {path}")
    window_id, origin, member, step, variable, value, names = columns
    windows, first, w_idx = np.unique(window_id, return_index=True, return_inverse=True)
    members = sorted(names)
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    shape = (windows.size, len(names), int(step.max()), int(variable.max()) + 1)
    # With every step >= 1 and variable >= 0, the records fill the W x M x L_y x c
    # grid exactly once iff there are as many records as cells and no two share one.
    complete = (
        math.prod(shape) == value.size
        and step.min() >= 1 and variable.min() >= 0
        and np.array_equal(origin, origin[first][w_idx])
    )
    if complete:
        cell = np.ravel_multi_index((w_idx, rank[member], step - 1, variable), shape)
        complete = bool(np.all(np.bincount(cell, minlength=value.size) == 1))
    if not complete:
        _raise_first_error(window_id, origin, member, step, variable, names)
    cube = np.empty(value.size)
    cube[cell] = value
    cube = cube.reshape(shape)
    ids = tuple(members)
    return [
        EnsembleForecast(window_id=wid, origin=o, predictions=cube[i], member_ids=ids)
        for i, (wid, o) in enumerate(zip(windows.tolist(), origin[first].tolist()))
    ]
