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
import os
import stat
import warnings
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from poakit.core import (
    FLOAT_FMT,
    DataFormatError,
    NumericError,
    TimeSeries,
    ValidationError,
    _freeze,
    _index_array,
    _refuse_first,
    csv_number,
    strict_float,
    strict_int,
    utf8_text,
)

# The hyperparameters each forecaster kind takes, in spec-string order.
_SPEC_PARAMS = {
    "persistence": (),
    "seasonal_naive": ("period",),
    "moving_average": ("width",),
    "ar_ols": ("order",),
    "exp_smoothing": ("alpha",),
    "holt_linear": ("alpha", "beta"),
}
FORECASTER_KINDS = tuple(_SPEC_PARAMS)


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
        need = _SPEC_PARAMS[self.kind]
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

    @property
    def member_id(self) -> str:
        parts = [self.kind]
        for name in ("period", "width", "order", "alpha", "beta"):
            value = getattr(self, name)
            if isinstance(value, float):  # :g's 6 digits if they read back as value, else all
                value = f"{value:g}" if float(f"{value:g}") == value else repr(value)
            if value is not None:
                parts.append(str(value))
        return "_".join(parts)

    @classmethod
    def parse(cls, text: str) -> "ForecasterSpec":
        """Parse a colon-separated spec, e.g. ``ar_ols:4`` or ``holt_linear:0.3:0.1``."""
        parts = text.strip().split(":")
        kind, args = parts[0], parts[1:]
        if kind not in _SPEC_PARAMS:
            raise ValidationError(f"unknown forecaster kind in {text!r}")
        names = _SPEC_PARAMS[kind]
        try:
            if len(args) != len(names):
                raise ValueError(f"expected {':'.join((kind, *names))}")
            return cls(kind, **{name: csv_number(arg, float if name in ("alpha", "beta") else int)
                                for name, arg in zip(names, args)})
        except ValueError as exc:
            raise ValidationError(f"cannot parse forecaster spec {text!r}: {exc}") from exc


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
    """One window of a :class:`ForecastCube`; ``predictions`` is a view into it."""

    window_id: int
    origin: int
    predictions: np.ndarray
    member_ids: tuple[str, ...]


class NonFiniteForecast(ValidationError):
    """A :class:`ForecastCube` was given a value that is not finite."""


@dataclass(frozen=True, eq=False)
class ForecastCube(Sequence):
    """W x M x L_y x c member ``predictions`` of windows with strictly increasing
    ``window_ids``, their ``origins`` and one unique id per member. Checked once
    and read-only; indexing and iteration give :class:`EnsembleForecast` views."""

    predictions: np.ndarray
    window_ids: np.ndarray
    origins: np.ndarray
    member_ids: tuple[str, ...]

    def __post_init__(self):
        preds = np.asarray(self.predictions, dtype=np.float64).view()
        ids = tuple(self.member_ids)
        wids = _index_array(self.window_ids, "window_ids")
        origins = _index_array(self.origins, "origins")
        if preds.ndim != 4:
            raise ValidationError("ensemble predictions must be W x M x L_y x c")
        if wids.shape != (len(preds),) or origins.shape != (len(preds),):
            raise ValidationError("one window id and origin per prediction window required")
        if preds.shape[1] != len(ids):
            raise ValidationError("one member_id per prediction slab required")
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate member_ids: {self.member_ids}")
        _refuse_first(wids[1:] <= wids[:-1], lambda i: (
            f"window ids must be strictly increasing: {wids[i]} followed by {wids[i + 1]}"))
        block = max(1, _BLOCK_BYTES // max(1, preds[:1].nbytes))
        for start in range(0, len(preds), block):  # no W x M x L_y x c mask
            finite = np.isfinite(preds[start:start + block]).all(axis=(2, 3))
            _refuse_first(~finite, lambda w, m: (
                f"non-finite prediction in window {wids[start + w]}, member {ids[m]!r}"),
                NonFiniteForecast)
        _freeze(self, predictions=preds, window_ids=wids, origins=origins)
        object.__setattr__(self, "member_ids", ids)

    def __len__(self) -> int:
        return len(self.window_ids)

    def __getitem__(self, i: int) -> EnsembleForecast:
        return EnsembleForecast(int(self.window_ids[i]), int(self.origins[i]),
                                self.predictions[i], self.member_ids)


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
        # The last w inputs, then the forecasts. numpy sums a W x w x c slice
        # along axis 1 in sequence when c > 1, as it does a time-major
        # w x W x c slice along axis 0, whose rows are contiguous. When c == 1
        # it sums the innermost axis pairwise: every output bit depends on
        # that, so c == 1 keeps the window-major layout.
        with np.errstate(over="ignore", invalid="ignore"):  # such windows are redone below
            if c == 1:
                buf = np.empty((W, w + horizon, c))
                buf[:, :w] = inputs[:, -w:]
                for h in range(horizon):
                    buf[:, w + h] = buf[:, h : w + h].mean(axis=1)
                out = buf[:, w:].copy()
            else:
                buf = np.empty((w + horizon, W, c))
                buf[:w] = inputs[:, -w:].transpose(1, 0, 2)
                for h in range(horizon):
                    buf[w + h] = buf[h : w + h].mean(axis=0)
                out = buf[w:].transpose(1, 0, 2).copy()
        # A window whose sums overflowed is redone on its inputs over a power
        # of two >= w, where no sum can; scaling by 2^j is exact.
        redo = ~np.isfinite(out).all(axis=(1, 2))
        if redo.any():
            scale = float(1 << (w - 1).bit_length())
            out[redo] = predict_batch(model, inputs[redo] / scale, horizon) * scale
        return out

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


# Windows are forecast in blocks of about this many bytes of stacked inputs;
# timings in CHANGES.md.
_BLOCK_BYTES = 1 << 20


def forecast_ensembles(
    members: list[FittedForecaster], windows: list[WindowPair], horizon: int
) -> ForecastCube:
    """Run every member over every window; members ordered by member_id.

    The W x M x L_y x c cube is allocated once and filled member by member,
    one block of about ``_BLOCK_BYTES`` of inputs at a time.
    """
    if not windows:
        raise ValidationError("no windows to forecast")
    ordered = sorted(members, key=lambda m: m.member_id)
    first = np.asarray(windows[0].input, dtype=np.float64)
    cube = np.empty((len(windows), len(ordered), horizon, first.shape[-1]))
    block = max(1, _BLOCK_BYTES // max(1, first.nbytes))
    for start in range(0, len(windows), block):
        inputs = np.stack([w.input for w in windows[start:start + block]])
        for j, model in enumerate(ordered):
            cube[start:start + len(inputs), j] = predict_batch(model, inputs, horizon)
    return ForecastCube(cube, [w.window_id for w in windows], [w.origin for w in windows],
                        tuple(m.member_id for m in ordered))


def evaluate_members(
    predictions: dict[str, np.ndarray], targets: np.ndarray
) -> list[ForecastScore]:
    """MSE/MAE per member over all (window, step, variable) cells.

    ``predictions`` maps member_id to a W x L_y x c array aligned with
    ``targets``. Scores come back sorted by member_id; the first member, in
    that order, whose mse or mae is not finite is a NumericError.
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
        with np.errstate(over="ignore"):  # an overflow is named below, not warned of
            err = pred - targets
            score = ForecastScore(member_id, float(np.mean(err**2)), float(np.mean(np.abs(err))))
        for metric, value in (("mse", score.mse), ("mae", score.mae)):
            if not math.isfinite(value):
                raise NumericError(f"member {member_id!r}: {metric} is not finite ({value})")
        scores.append(score)
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
_CHUNK_ROWS = 1 << 13  # CSV lines read, or NDJSON records parsed, per chunk
_MIN_RECORD_BYTES = 10  # the shortest record: "0,0,,1,0,0"
# numpy's int64 parser rejects "1.5" and "3.0" just as int() does
_CSV_DTYPE = np.dtype([(f, np.float64 if f == "value" else np.int64) for f in _RECORD_FIELDS])


def _csv_field(text: str) -> str:
    """``text`` as one field of a ``csv.writer`` row (quoted where needed)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])  # the row ends ",\r\n"
    return buf.getvalue()[:-3]


def _record_template(member_ids: tuple[str, ...], shape: tuple) -> str:
    """``str.format`` template for one window's CSV records.

    Field 0 is what each record writes before its member id, and field 1 + k
    the k-th value of the window's flattened M x L_y x c predictions.
    """
    parts = []
    k = 1
    for member in member_ids:
        quoted = _csv_field(member).replace("{", "{{").replace("}", "}}")
        for step in range(1, shape[1] + 1):
            for var in range(shape[2]):
                parts.append(f"{{0}}{quoted},{step},{var},{{{k}:{FLOAT_FMT}}}\r\n")
                k += 1
    return "".join(parts)


def write_forecast_records(path, cube: ForecastCube) -> None:
    """Write forecasts as flat CSV records.

    One record per (window, member, step, variable) cell; step is 1-based,
    variable 0-based. Rows are what ``csv.writer`` writes: member ids quoted
    where needed, CRLF line endings, values at 9 significant digits.
    """
    path = str(path)
    if not path.endswith(".csv"):
        raise ValidationError(f"unsupported forecast file extension: {path}")
    template = _record_template(cube.member_ids, cube.predictions.shape[1:])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_RECORD_FIELDS) + "\r\n")
        for wid, origin, preds in zip(cube.window_ids.tolist(), cube.origins.tolist(),
                                      cube.predictions):
            fh.write(template.format(f"{wid},{origin},", *preds.ravel().tolist()))


def _parse_record(raw: dict, line_no: int) -> tuple:
    try:
        record = (
            strict_int(raw["window_id"]),
            strict_int(raw["origin"]),
            raw["member_id"],
            strict_int(raw["step"]),
            strict_int(raw["variable"]),
            strict_float(raw["value"]),
        )
        if not isinstance(record[2], str):  # a JSON null, number or bool
            raise TypeError(f"member_id is not a string: {record[2]!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"line {line_no}: bad forecast record ({exc})") from exc
    if (-2**63 <= record[0] < 2**63 and -2**63 <= record[1] < 2**63
            and -2**63 <= record[3] < 2**63 and -2**63 <= record[4] < 2**63):
        return record
    outside = next(n for n in record[:2] + record[3:5] if not -2**63 <= n < 2**63)
    raise DataFormatError(
        f"line {line_no}: bad forecast record (integer outside the int64 range: {outside})")


def _record_chunks(records, codes):
    """Parsed records as column chunks of at most ``_CHUNK_ROWS`` records:
    (window_id, origin, member code, step, variable, value)."""
    while chunk := list(itertools.islice(records, _CHUNK_ROWS)):
        window_id, origin, member, step, variable, value = zip(*chunk)
        ints = [np.array(col, dtype=np.int64) for col in (window_id, origin, step, variable)]
        member = np.array([codes[m] for m in member], dtype=np.int64)
        yield ints[0], ints[1], member, ints[2], ints[3], np.array(value, dtype=np.float64)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; the first key named a second time is refused,
    where ``json.loads`` keeps its last value."""
    raw = dict(pairs)
    if len(raw) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise DataFormatError(f"record names field {key!r} twice")
    return raw


# json.loads given a hook builds a decoder per call, about doubling a record's parse
_RECORD_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _ndjson_records(path: str):
    with utf8_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("\ufeff"):
                    json.loads(line)  # refused as json.loads refuses a byte order mark
                raw = _RECORD_DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"line {line_no}: invalid JSON ({exc})") from exc
            except DataFormatError as exc:  # a key named twice
                raise DataFormatError(f"line {line_no}: {exc}") from None
            yield _parse_record(raw, line_no)


def _ends_quoted(text: str, quoted: bool) -> bool:
    """Whether ``text`` ends inside a quoted field, given whether it starts in
    one. As csv and numpy read it: a quote opens a field only at the field's
    start, and inside one ``""`` is a quote and a lone quote closes it."""
    pos = 0
    while (q := text.find('"', pos)) >= 0:
        if quoted and text.startswith('"', q + 1):  # an escaped quote
            q += 1
        elif quoted or q == 0 or text[q - 1] in ",\r\n":
            quoted = not quoted
        pos = q + 1
    return quoted


def _csv_chunks(path: str, codes):
    """Column chunks of a record CSV, its columns found by header name.

    The file is read ``_CHUNK_ROWS`` lines at a time and numpy parses each
    batch; a batch that ends inside a quoted field takes more lines until the
    field closes. When numpy refuses a batch, its records are walked one at a
    time from the lines in hand. Errors name physical lines: blank lines and
    quoted line breaks count. Only the header is held to csv's field size
    limit, which bounds its read when a quote never closes.
    """
    with utf8_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise DataFormatError(f"header: {exc}") from None
        if header is None:
            raise DataFormatError("empty forecast file")
        missing = set(_RECORD_FIELDS) - set(header)
        if missing:
            raise DataFormatError(f"header missing columns {sorted(missing)}")
        for name in _RECORD_FIELDS:
            if header.count(name) > 1:
                raise DataFormatError(f"header names column {name!r} twice")
        column = {name: i for i, name in enumerate(header)}
        usecols = [column[f] for f in _RECORD_FIELDS]
        converters = {column["member_id"]: codes.__getitem__}
        lines_before = reader.line_num  # the lines the header took
        while lines := list(itertools.islice(fh, _CHUNK_ROWS)):
            quoted = _ends_quoted("".join(lines), False)
            while quoted and (more := list(itertools.islice(fh, _CHUNK_ROWS))):
                lines += more
                quoted = _ends_quoted("".join(more), True)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # blank lines, no records
                    warnings.simplefilter("error", DeprecationWarning)  # old numpy: "1.5" -> 1
                    table = np.loadtxt(  # no more records than lines: sized once
                        lines, dtype=_CSV_DTYPE, delimiter=",", quotechar='"', comments=None,
                        usecols=usecols, converters=converters, ndmin=1, max_rows=len(lines),
                    )
            except (ValueError, DeprecationWarning) as exc:  # the first bad record's error
                records = csv.DictReader(lines, header)
                # no field is longer than the lines in hand; the limit is process-wide
                limit = csv.field_size_limit(sum(map(len, lines)))
                try:
                    for raw in records:
                        _parse_record(raw, lines_before + records.line_num)
                except csv.Error as error:  # a NUL before Python 3.11
                    raise DataFormatError(
                        f"line {lines_before + records.reader.line_num}: {error}") from None
                finally:
                    csv.field_size_limit(limit)
                # no cause found: numpy's own words, not a guess
                raise DataFormatError(f"records from line {lines_before + 1} on ({exc})") from exc
            lines_before += len(lines)
            del lines  # only a refused chunk needs its lines
            if table.size:
                yield tuple(table[f] for f in _RECORD_FIELDS)
            del table  # before the next chunk is read


class _RecordGrid:
    """Forecast records scattered into one W x M x L_y x c cube as they arrive.

    Windows and members take slots in the order of their first record. Next
    to the values, ``stamp`` holds the 1-based int32 number of the record that
    filled each cell (0: not yet filled), so duplicates and gaps show without
    keeping any record past its chunk; a record past number 2**31 - 1 is a
    MemoryError. A file of n records fills at most n cells, so a record whose
    cell would make the grid span more cells than the file has room for
    records is refused: the cube never grows past it.
    Array checks only decide whether a chunk is clean; the first bad record
    of a chunk that is not is named by :meth:`_first_error`, one record at a
    time.
    """

    def __init__(self, codes, max_records):
        self.codes = codes
        self.max_records = max_records
        self.slot_of: dict[int, int] = {}
        self.window_ids = np.empty(0, dtype=np.int64)  # by slot
        self.origins = np.empty(0, dtype=np.int64)  # by slot: the first record's origin
        self.dims = (0, 0, 0, 0)  # W, M, L_y, c spanned by the records so far
        self.values = np.empty((0, 0, 0, 0))
        self.stamp = np.zeros((0, 0, 0, 0), np.int32)
        self.n = 0
        self.error: str | None = None

    def add(self, window_id, origin, member, step, variable, value) -> None:
        """Scatter the next chunk if all its records are clean, else keep the
        first bad record's error."""
        if self.error is not None:
            return  # later records cannot move the first bad one
        if self.n + step.size >= 2**31:
            raise MemoryError(f"more than {2**31 - 1} records")
        first = self.n + 1
        self.n += step.size
        slot = self._slots(window_id, origin)
        W, M, L, c = self.dims
        dims = (max(W, int(slot.max()) + 1), max(M, int(member.max()) + 1),
                max(L, int(step.max())), max(c, int(variable.max()) + 1))
        if ((step >= 1).all() and (variable >= 0).all() and (origin == self.origins[slot]).all()
                and math.prod(dims) <= self.max_records):
            self._grow(dims)
            cells = np.ravel_multi_index((slot, member, step - 1, variable), self.stamp.shape)
            stamp = self.stamp.reshape(-1)
            prior = stamp[cells]
            rec = np.arange(first, self.n + 1, dtype=stamp.dtype)
            stamp[cells] = rec
            if not prior.any() and np.array_equal(stamp[cells], rec):  # no cell filled twice
                self.values.reshape(-1)[cells] = value
                self.dims = dims
                return
            stamp[cells] = prior  # as before the chunk, for the walk to read
        self.error = self._first_error(first, window_id, origin, slot, member, step, variable)

    def _first_error(self, first, window_id, origin, slot, member, step, variable) -> str:
        """The error of a chunk's first bad record, its records walked in file
        order from record number ``first``.

        Within a record, a step or variable out of range comes first, then a
        cell already seen, then an origin other than the one the window's
        first record gave, then a cell the file has no room for.
        """
        names = list(self.codes)
        dims, shape = self.dims, self.stamp.shape
        seen: dict[tuple, int] = {}  # this chunk's cells: the record that filled each
        for rec, wid, o, w, m, s, v in zip(itertools.count(first), window_id.tolist(),
                                            origin.tolist(), slot.tolist(), member.tolist(),
                                            step.tolist(), variable.tolist()):
            if s < 1 or v < 0:
                return f"record {rec}: step must be >= 1 and variable >= 0, got ({s}, {v})"
            cell = (w, m, s - 1, v)
            before = int(self.stamp[cell]) if all(x < h for x, h in zip(cell, shape)) else 0
            filled = before or seen.setdefault(cell, rec)
            if filled != rec:
                return (f"record {rec}: duplicate cell window={wid} member={names[m]!r} "
                        f"step={s} variable={v} (first seen at record {filled})")
            if o != self.origins[w]:
                return (f"record {rec}: window {wid} has conflicting origins "
                        f"{self.origins[w]} and {o}")
            dims = tuple(max(d, x + 1) for d, x in zip(dims, cell))
            if math.prod(dims) > self.max_records:
                W, M, L, c = dims
                return (f"record {rec}: cell window={wid} member={names[m]!r} step={s} "
                        f"variable={v} would make the grid {W} windows x {M} members x "
                        f"{L} steps x {c} variables, more cells than the "
                        f"{self.max_records} records this file has room for")
        raise AssertionError(f"records {first} to {rec} were refused, but none is bad")

    def _slots(self, window_id, origin):
        """Slot per record; a new window takes the origin of its first record."""
        starts = np.flatnonzero(np.r_[True, window_id[1:] != window_id[:-1]])
        run_slots, new = [], []
        for wid, o in zip(window_id[starts].tolist(), origin[starts].tolist()):
            slot = self.slot_of.setdefault(wid, len(self.slot_of))
            if slot == len(self.window_ids) + len(new):
                new.append((wid, o))
            run_slots.append(slot)
        if new:
            ids, origins = zip(*new)
            self.window_ids = np.concatenate([self.window_ids, ids])
            self.origins = np.concatenate([self.origins, origins])
        return np.repeat(run_slots, np.diff(np.r_[starts, window_id.size]))

    def _grow(self, dims) -> None:
        """Grow the arrays to hold a grid of ``dims``, which fits the file's room.

        Member, step and variable capacity is exact; the window axis grows by
        a quarter at a time, in place.
        """
        W, cap = self.dims[0], self.stamp.shape  # W: the windows filled so far
        if all(d <= h for d, h in zip(dims, cap)):
            return
        rows = cap[0] if dims[0] <= cap[0] else max(dims[0], cap[0] + cap[0] // 4)
        shape = (min(rows, self.max_records // math.prod(dims[1:])), *dims[1:])
        if dims[1:] == cap[1:]:  # realloc: no view of either array outlives its call
            self.values.resize(shape, refcheck=False)
            self.stamp.resize(shape, refcheck=False)
        else:
            values, stamp = np.zeros(shape), np.zeros(shape, self.stamp.dtype)
            old = (slice(0, W), *(slice(0, h) for h in cap[1:]))
            values[old], stamp[old] = self.values[:W], self.stamp[:W]
            self.values, self.stamp = values, stamp

    def forecasts(self) -> ForecastCube:
        """The cube in window id order, members in id order, or the first error."""
        if self.error is not None:
            raise DataFormatError(self.error)
        if self.n == 0:
            raise DataFormatError("no forecast records found")
        W, M, L, c = self.dims
        # With no cell filled twice and every record inside the W x M x L_y x c
        # grid, the records fill it iff there are as many records as cells.
        if self.n != W * M * L * c:
            raise self._missing_cells()
        self.stamp = None
        self.values.resize(self.dims, refcheck=False)
        names = list(self.codes)
        w_order = np.argsort(self.window_ids)
        m_order = sorted(range(M), key=names.__getitem__)
        cube = self.values
        if not (np.array_equal(w_order, np.arange(W)) and m_order == list(range(M))):
            cube = cube[np.ix_(w_order, m_order)]
        return ForecastCube(cube, self.window_ids[w_order], self.origins[w_order],
                            tuple(names[m] for m in m_order))

    def _missing_cells(self) -> DataFormatError:
        """The error of the first window, in id order, that lacks a cell."""
        W, M, L, c = self.dims
        counts = np.count_nonzero(self.stamp[:W], axis=(1, 2, 3))
        expected = M * L * c
        order = np.argsort(self.window_ids)
        w = int(order[np.flatnonzero(counts[order] != expected)[0]])
        names = list(self.codes)
        m_order = sorted(range(M), key=names.__getitem__)
        # the grid is no larger than the file, so the window's slab is scanned whole
        missing = [(names[m_order[m]], s + 1, v)
                   for m, s, v in np.argwhere((self.stamp[w] == 0)[m_order])[:3].tolist()]
        return DataFormatError(
            f"window {self.window_ids[w]}: expected {expected} cells "
            f"({M} members x {L} steps x {c} variables), got {counts[w]}; "
            f"first missing: {missing}"
        )


def _max_records(path: str) -> float:
    """An upper bound on the records a file can hold: none is under
    ``_MIN_RECORD_BYTES`` long. Unbounded for a pipe or other non-file."""
    st = os.stat(path)
    return st.st_size // _MIN_RECORD_BYTES if stat.S_ISREG(st.st_mode) else math.inf


def ingest_external_forecasts(path) -> ForecastCube:
    """Read forecast records into one cube.

    Every (member, step, variable) cell must appear exactly once per window
    and all windows must share the same member set, horizon and variable
    count. Format auto-detected from the extension (.csv vs .ndjson/.jsonl);
    CSV columns are found by header name. Records stream through in chunks:
    on a regular file, memory is the W x M x L_y x c cube plus one chunk,
    whatever the record count or order. Every error in the file's content
    starts with its path: the first record that does not parse, else the
    first bad record, else the first window, in id order, that lacks a cell.
    """
    path = str(path)
    codes: defaultdict = defaultdict()  # member id -> integer code, numbered on first lookup
    codes.default_factory = codes.__len__
    if path.endswith(".csv"):
        chunks = _csv_chunks(path, codes)
    elif path.endswith((".ndjson", ".jsonl")):
        chunks = _record_chunks(_ndjson_records(path), codes)
    else:
        raise ValidationError(f"unsupported forecast file extension: {path}")
    try:
        grid = _RecordGrid(codes, _max_records(path))
        for columns in chunks:  # a parse error anywhere comes before any record error
            grid.add(*columns)
            del columns  # one chunk in memory at a time
        return grid.forecasts()
    except ValidationError as exc:
        if str(exc).startswith(f"{path}: "):  # utf8_text names the file itself
            raise
        raise type(exc)(f"{path}: {exc}") from exc
    except MemoryError as exc:  # a pipe has no size to bound the grid it names
        raise MemoryError(f"{path}: {exc or 'out of memory'}") from exc
