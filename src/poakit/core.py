"""Domain types and segment algebra shared by the whole toolkit.

Index convention: everything is 0-based and inclusive: a :class:`Segment`
with ``start=3, length=2`` covers indices {3, 4}.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented contract."""


class DataFormatError(ValidationError):
    """Raised when a file's content does not match its declared format."""


class NumericError(ArithmeticError):
    """Raised when a computation produces non-finite values."""


def strict_int(value) -> int:
    """An integer given as an int or a string under :func:`csv_number`'s
    grammar. int() would truncate a float (1.7 -> 1) and read a bool as 0/1,
    so both are refused."""
    if type(value) is int:  # the common case, kept as cheap as int() is
        return value
    if isinstance(value, str):
        return csv_number(value, int)
    number = int(value)  # inf and nan fail here with int()'s message
    if isinstance(value, (float, bool)):
        raise ValueError(f"not an integer: {value!r}")
    return number


def strict_float(value) -> float:
    """float(value), a string read under :func:`csv_number`'s grammar; a bool
    is refused (float() would read it as 0.0/1.0)."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return csv_number(value) if isinstance(value, str) else float(value)


# The format of every float in poakit's CSV and JSON outputs (NDJSON records
# keep full precision).
FLOAT_FMT = ".9g"


def csv_number(text: str, parse=float):
    """``parse(text)`` under the one grammar of a number in a CSV cell, the
    one numpy's ``loadtxt`` reads: int()/float()'s, less the '_' separators
    and non-ASCII digits they also take. Once ``parse`` accepts a cell, a
    non-ASCII character left after stripping can only be such a digit, so
    non-ASCII spaces around the number stay accepted."""
    number = parse(text)
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"not an ASCII number without '_': {text!r}")
    return number


@contextmanager
def utf8_text(path, newline=None):
    """``path`` opened for reading as UTF-8 text. A byte that does not decode,
    wherever the body reads it, is a DataFormatError that names the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})") from None


@dataclass(frozen=True)
class TimeSeries:
    """Multivariate series: ``values`` is a T x c matrix, one row per step.

    Timestamps must increase with unit step; they may start anywhere, but
    window origins and segment indices are always row positions (0-based).
    """

    timestamps: np.ndarray
    values: np.ndarray
    variable_names: tuple[str, ...] | None = None

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValidationError(f"values must be 2-D (T x c), got shape {vals.shape}")
        if vals.shape[0] < 1:
            raise ValidationError("series must contain at least one row")
        if ts.shape != (vals.shape[0],):
            raise ValidationError(
                f"timestamps length {ts.shape} does not match {vals.shape[0]} rows"
            )
        if ts.shape[0] > 1 and not np.all(np.diff(ts) == 1):
            raise ValidationError("timestamps must be strictly increasing with unit step")
        if not np.all(np.isfinite(vals)):
            bad = int(np.argwhere(~np.isfinite(vals))[0][0])
            raise ValidationError(f"non-finite value in row {bad}")
        if self.variable_names is not None and len(self.variable_names) != vals.shape[1]:
            raise ValidationError(
                f"{len(self.variable_names)} variable names for {vals.shape[1]} variables"
            )
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        self.timestamps.setflags(write=False)
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]


def allocatable(count: int) -> int:
    """``count``, the length of an 8-byte array about to be made, or the
    MemoryError numpy gives a size it cannot allocate: for a size no array can
    hold, numpy raises ``ValueError: array is too big`` instead."""
    if count > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"Unable to allocate {count} values of 8 bytes: no array can hold them")
    return count


def binary_flags(values, name: str) -> np.ndarray:
    """``values`` as a 1-D int8 array of 0/1 flags, or a ValidationError.

    The values are checked before the cast, which would truncate 0.5 to 0
    and wrap 257 to 1."""
    flags = np.asarray(values)
    if flags.ndim != 1:
        raise ValidationError(f"{name} must be 1-D")
    if not np.all((flags == 0) | (flags == 1)):
        raise ValidationError(f"{name} must be 0 or 1")
    return flags.astype(np.int8, copy=False)


@dataclass(frozen=True)
class LabelSequence:
    """Per-instance anomaly flags (0/1), positionally aligned to a series."""

    flags: np.ndarray

    def __post_init__(self):
        flags = binary_flags(self.flags, "label flags")
        object.__setattr__(self, "flags", flags)
        self.flags.setflags(write=False)

    def __len__(self) -> int:
        return self.flags.shape[0]


@dataclass(frozen=True, order=True)
class Segment:
    """Run of consecutive indices [start, start + length - 1], inclusive."""

    start: int
    length: int

    def __post_init__(self):
        if self.start < 0:
            raise ValidationError(f"segment start must be >= 0, got {self.start}")
        if self.length < 1:
            raise ValidationError(f"segment length must be >= 1, got {self.length}")

    @property
    def end(self) -> int:
        """Last covered index (inclusive)."""
        return self.start + self.length - 1

    def indices(self) -> range:
        return range(self.start, self.start + self.length)


def _segment_or_none(start: int, end: int) -> Segment | None:
    return Segment(start, end - start + 1) if 0 <= start <= end else None


def _segments(starts: np.ndarray, ends: np.ndarray) -> tuple[Segment | None, ...]:
    """The segments ``[starts[i], ends[i]]`` (inclusive); a slot whose start
    is negative or whose end precedes its start reads as None."""
    return tuple(map(_segment_or_none, starts.tolist(), ends.tolist()))


def ambiguous_ends(starts: np.ndarray, ends: np.ndarray, delta: int, series_len: int) -> np.ndarray:
    """Inclusive end of each anomaly's ambiguous window, given the anomalies'
    sorted disjoint bounds; an end equal to the anomaly's own end means empty.

    The window runs for at most ``delta`` steps after the anomaly, truncated
    at the series end and at the next anomaly's start.
    """
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    limit = np.append(starts[1:], series_len) - 1
    # clamped to the series, which ends every window anyway, ends + delta fits int64
    return np.maximum(ends, np.minimum(ends + min(delta, series_len), limit))


def _index_array(values, name: str) -> np.ndarray:
    """``values`` as a read-only 1-D int64 copy; a float, bool or multi-axis
    input is refused rather than truncated or flattened."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":  # an empty list reads as float64
        raise ValidationError(f"{name} must hold integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


def _refuse_first(mask: np.ndarray, describe) -> None:
    """A ValidationError with ``describe(i)`` for the first True index i of ``mask``."""
    bad = np.flatnonzero(mask)
    if bad.size:
        raise ValidationError(describe(int(bad[0])))


class SegmentSet:
    """Ground-truth anomalies with the prediction/precursor/ambiguous structure.

    Held as read-only int64 arrays, 0-based with inclusive ends:

    - ``anomaly_starts``/``anomaly_ends``, sorted and disjoint;
    - ``ambiguous_ends``: the tolerated trailing window after anomaly i covers
      ``anomaly_ends[i] + 1 .. ambiguous_ends[i]`` (empty when the two ends are
      equal), at most ``delta`` long;
    - ``prediction_starts``/``prediction_ends``, sorted and disjoint;
    - ``precursor_starts``: the early-warning run directly preceding
      prediction j covers ``precursor_starts[j] .. prediction_starts[j] - 1``;
      -1 means it has no precursor. A precursor that reaches back into the
      previous prediction is refused.

    The constructor takes 1-D integer arrays and checks every invariant above
    (:func:`ambiguous_ends` computes the ambiguous ends from a series length).
    ``anomalies``, ``predictions``, ``precursors`` and ``ambiguous`` read the
    structure back as a tuple of Segments (None for an empty slot), built on
    each read; no metric reads them.
    """

    __slots__ = ("anomaly_starts", "anomaly_ends", "ambiguous_ends",
                 "prediction_starts", "prediction_ends", "precursor_starts", "delta")

    def __init__(self, anomaly_starts, anomaly_ends, ambiguous_ends,
                 prediction_starts, prediction_ends, precursor_starts, delta: int):
        arrays = [_index_array(values, name) for name, values in zip(
            self.__slots__, (anomaly_starts, anomaly_ends, ambiguous_ends,
                             prediction_starts, prediction_ends, precursor_starts))]
        a_s, a_e, amb_e, p_s, p_e, pp_s = arrays
        if type(delta) is bool or not isinstance(delta, (int, np.integer)):
            raise ValidationError(f"delta must be an integer, got {delta!r}")
        if delta < 0:
            raise ValidationError(f"delta must be >= 0, got {delta}")
        for kind, starts, ends in (("anomaly", a_s, a_e), ("prediction", p_s, p_e)):
            if ends.shape != starts.shape:
                raise ValidationError(
                    f"need one {kind} end per {kind} start, got {ends.size} for {starts.size}")
            _refuse_first(starts < 0, lambda i: f"{kind} {i} starts at {starts[i]}, before 0")
            _refuse_first(ends < starts, lambda i: (
                f"{kind} {i} ends at {ends[i]}, before its start {starts[i]}"))
            _refuse_first(starts[1:] <= ends[:-1], lambda i: (
                f"{kind} segments must be disjoint and sorted by start: "
                f"[{starts[i]}, {ends[i]}] followed by [{starts[i + 1]}, {ends[i + 1]}]"))
        if amb_e.shape != a_s.shape:
            raise ValidationError(
                f"need one ambiguous end per anomaly, got {amb_e.size} for {a_s.size}")
        # widths, not ends, meet delta: a_e + delta can pass the int64 range
        _refuse_first((amb_e < a_e) | (amb_e - a_e > delta), lambda i: (
            f"anomaly {i} ambiguous end {amb_e[i]} must be in "
            f"[{a_e[i]}, {int(a_e[i]) + int(delta)}] (its end .. end + delta)"))
        if pp_s.shape != p_s.shape:
            raise ValidationError(
                f"need one precursor start per prediction, got {pp_s.size} for {p_s.size}")
        _refuse_first((pp_s < -1) | (pp_s >= p_s), lambda i: (
            f"prediction {i} precursor start {pp_s[i]} must be -1 or in [0, {p_s[i]})"))
        _refuse_first((pp_s[1:] >= 0) & (pp_s[1:] <= p_e[:-1]), lambda i: (
            f"prediction {i + 1} precursor start {pp_s[i + 1]} reaches back into "
            f"prediction {i} [{p_s[i]}, {p_e[i]}]"))
        for name, arr in zip(self.__slots__, arrays):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "delta", int(delta))

    def __setattr__(self, name, value):
        raise AttributeError(f"SegmentSet is read-only: cannot set {name!r}")

    @property
    def anomalies(self) -> tuple[Segment, ...]:
        return _segments(self.anomaly_starts, self.anomaly_ends)

    @property
    def predictions(self) -> tuple[Segment, ...]:
        return _segments(self.prediction_starts, self.prediction_ends)

    @property
    def precursors(self) -> tuple[Segment | None, ...]:
        return _segments(self.precursor_starts, self.prediction_starts - 1)

    @property
    def ambiguous(self) -> tuple[Segment | None, ...]:
        return _segments(self.anomaly_ends + 1, self.ambiguous_ends)


@dataclass(frozen=True)
class ScoreSeries:
    """Per-timestamp precursor scores; NaN marks timestamps never scored.

    ``lead_times[t]`` is the number of steps between the emitting window's
    origin and t (NaN wherever the score is missing).
    """

    scores: np.ndarray
    lead_times: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        leads = np.asarray(self.lead_times, dtype=np.float64)
        if scores.ndim != 1 or leads.shape != scores.shape:
            raise ValidationError("scores and lead_times must be 1-D and equal length")
        defined = ~np.isnan(scores)
        if np.any(np.isnan(leads[defined])) or np.any(~np.isnan(leads[~defined])):
            raise ValidationError("lead_time must be defined exactly where score is")
        if np.any(np.isinf(scores)):
            raise ValidationError("defined scores must be finite")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "lead_times", leads)
        self.scores.setflags(write=False)
        self.lead_times.setflags(write=False)

    def __len__(self) -> int:
        return self.scores.shape[0]

    @property
    def defined(self) -> np.ndarray:
        return ~np.isnan(self.scores)


def run_bounds(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and inclusive end of each maximal run of 1s in a 0/1 array."""
    padded = np.zeros(flags.shape[0] + 2, dtype=np.int8)
    padded[1:-1] = flags
    # zero-padded at both ends, so the edges alternate run start, run end + 1
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2] - 1
