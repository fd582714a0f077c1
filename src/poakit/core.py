"""Domain types and segment algebra shared by the whole toolkit.

Index convention: everything in memory is 0-based and inclusive: a
:class:`Segment` with ``start=3, length=2`` covers indices {3, 4}. File
readers/writers translate to 1-based indices when asked (see ``poakit.io``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented contract."""


class DataFormatError(ValidationError):
    """Raised when a file's content does not match its declared format."""


class NumericError(ArithmeticError):
    """Raised when a computation produces non-finite values."""


def strict_int(value) -> int:
    """An integer given as an int or a numeric string. int() would truncate a
    float (1.7 -> 1) and read a bool as 0/1, so both are refused."""
    if type(value) is int:  # the common case, kept as cheap as int() is
        return value
    number = int(value)  # inf, nan and bad strings fail here with int()'s message
    if isinstance(value, (float, bool)):
        raise ValueError(f"not an integer: {value!r}")
    return number


def strict_float(value) -> float:
    """float(value), refusing a bool (float() would read it as 0.0/1.0)."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


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


def binary_flags(values, name: str) -> np.ndarray:
    """``values`` as a 1-D int8 array of 0/1 flags, or a ValidationError."""
    flags = np.asarray(values, dtype=np.int8)
    if flags.ndim != 1:
        raise ValidationError(f"{name} must be 1-D")
    if not np.all((flags == 0) | (flags == 1)):
        raise ValidationError(f"{name} must be 0 or 1")
    return flags


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

    def overlap_len(self, other: "Segment | None") -> int:
        """Number of indices covered by both segments."""
        if other is None:
            return 0
        return max(0, min(self.end, other.end) - max(self.start, other.start) + 1)


def _segment_or_none(start: int, end: int) -> Segment | None:
    return Segment(start, end - start + 1) if 0 <= start <= end else None


class SegmentView(Sequence):
    """Read-only sequence of the segments ``[starts[i], ends[i]]`` (inclusive).

    A slot whose start is negative or whose end precedes its start reads as
    None. Items are built as :class:`Segment` objects only when read, so a
    length or an array computation never builds any.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, starts: np.ndarray, ends: np.ndarray):
        self._starts = starts
        self._ends = ends

    def __len__(self) -> int:
        return self._starts.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return _segment_or_none(int(self._starts[i]), int(self._ends[i]))

    def __iter__(self):
        return map(_segment_or_none, self._starts.tolist(), self._ends.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def segment_bounds(segments, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Start and inclusive end arrays of segments that must be disjoint and sorted."""
    bounds = np.array([(s.start, s.end) for s in segments], dtype=np.int64).reshape(-1, 2)
    starts, ends = bounds[:, 0], bounds[:, 1]
    bad = np.flatnonzero(starts[1:] <= ends[:-1])
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"{name} segments must be disjoint and sorted by start: "
            f"{segments[i]} followed by {segments[i + 1]}"
        )
    return starts, ends


def ambiguous_ends(starts: np.ndarray, ends: np.ndarray, delta: int, series_len: int) -> np.ndarray:
    """Inclusive end of each anomaly's ambiguous window, given the anomalies'
    sorted disjoint bounds; an end equal to the anomaly's own end means empty.

    The window runs for at most ``delta`` steps after the anomaly, truncated
    at the series end and at the next anomaly's start.
    """
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    limit = np.append(starts[1:], series_len) - 1
    return np.maximum(ends, np.minimum(ends + delta, limit))


class SegmentSet:
    """Ground-truth anomalies with the prediction/precursor/ambiguous structure.

    Held as read-only int64 arrays, 0-based with inclusive ends:

    - ``anomaly_starts``/``anomaly_ends``, sorted and disjoint;
    - ``ambiguous_ends``: the tolerated trailing window after anomaly i covers
      ``anomaly_ends[i] + 1 .. ambiguous_ends[i]`` (empty when the two ends are
      equal), at most ``delta`` long and truncated at the series end or the
      next anomaly;
    - ``prediction_starts``/``prediction_ends``, sorted and disjoint;
    - ``precursor_starts``: the early-warning run directly preceding
      prediction j covers ``precursor_starts[j] .. prediction_starts[j] - 1``;
      -1 means it has no precursor.

    The constructor takes :class:`Segment` tuples (None for an empty precursor
    or ambiguous slot) and checks them. :meth:`from_arrays` takes arrays that
    already hold these invariants and checks nothing. ``anomalies``,
    ``predictions``, ``precursors`` and ``ambiguous`` read the structure back
    as Segments.
    """

    __slots__ = ("anomaly_starts", "anomaly_ends", "ambiguous_ends",
                 "prediction_starts", "prediction_ends", "precursor_starts", "delta")

    def __init__(self, anomalies, predictions, precursors, ambiguous, delta: int):
        anomalies, predictions = tuple(anomalies), tuple(predictions)
        precursors, ambiguous = tuple(precursors), tuple(ambiguous)
        if delta < 0:
            raise ValidationError("delta must be >= 0")
        a_s, a_e = segment_bounds(anomalies, "anomaly")
        p_s, p_e = segment_bounds(predictions, "prediction")
        if len(precursors) != len(predictions):
            raise ValidationError("need one precursor slot per prediction")
        if len(ambiguous) != len(anomalies):
            raise ValidationError("need one ambiguous slot per anomaly")
        for p, pp in zip(predictions, precursors):
            if pp is not None and pp.end != p.start - 1:
                raise ValidationError(
                    f"precursor {pp} must end exactly at prediction start-1 ({p})"
                )
        for a, amb in zip(anomalies, ambiguous):
            if amb is None:
                continue
            if amb.start != a.end + 1:
                raise ValidationError(
                    f"ambiguous window {amb} must start at anomaly end+1 ({a})"
                )
            if amb.length > delta:
                raise ValidationError(
                    f"ambiguous window {amb} longer than delta={delta}"
                )
        self._store(
            a_s, a_e, [a.end if amb is None else amb.end for a, amb in zip(anomalies, ambiguous)],
            p_s, p_e, [-1 if pp is None else pp.start for pp in precursors], delta,
        )

    @classmethod
    def from_arrays(cls, anomaly_starts, anomaly_ends, ambiguous_ends,
                    prediction_starts, prediction_ends, precursor_starts,
                    delta: int) -> "SegmentSet":
        """Wrap arrays that already hold the class invariants; nothing is checked."""
        segments = cls.__new__(cls)
        segments._store(anomaly_starts, anomaly_ends, ambiguous_ends,
                        prediction_starts, prediction_ends, precursor_starts, delta)
        return segments

    def _store(self, a_s, a_e, amb_e, p_s, p_e, pp_s, delta) -> None:
        for name, values in zip(self.__slots__, (a_s, a_e, amb_e, p_s, p_e, pp_s)):
            object.__setattr__(self, name, _frozen(values))
        object.__setattr__(self, "delta", int(delta))

    def __setattr__(self, name, value):
        raise AttributeError(f"SegmentSet is read-only: cannot set {name!r}")

    @property
    def anomalies(self) -> SegmentView:
        return SegmentView(self.anomaly_starts, self.anomaly_ends)

    @property
    def predictions(self) -> SegmentView:
        return SegmentView(self.prediction_starts, self.prediction_ends)

    @property
    def precursors(self) -> SegmentView:
        return SegmentView(self.precursor_starts, self.prediction_starts - 1)

    @property
    def ambiguous(self) -> SegmentView:
        return SegmentView(self.anomaly_ends + 1, self.ambiguous_ends)


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


def segments_from_flags(flags) -> list[Segment]:
    """Maximal runs of 1s in a binary sequence, as sorted disjoint segments."""
    return list(SegmentView(*run_bounds(binary_flags(flags, "flags"))))


def flags_from_segments(segments: list[Segment], length: int) -> np.ndarray:
    """Inverse of :func:`segments_from_flags` for disjoint sorted segments."""
    flags = np.zeros(length, dtype=np.int8)
    for seg in segments:
        if seg.end >= length:
            raise ValidationError(f"segment {seg} exceeds sequence length {length}")
        flags[seg.start : seg.end + 1] = 1
    return flags


def ambiguous_extensions(
    anomalies: list[Segment], delta: int, series_len: int
) -> list[Segment | None]:
    """Trailing tolerated window after each anomaly, None where it is empty.

    Each window starts right after its anomaly and runs for at most ``delta``
    steps, truncated at the series end and at the next anomaly's start (an
    instance inside a later true anomaly must not count as ambiguous trailing
    of an earlier one).
    """
    starts, ends = segment_bounds(anomalies, "anomaly")
    return list(SegmentView(ends + 1, ambiguous_ends(starts, ends, delta, series_len)))
