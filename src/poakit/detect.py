"""Threshold selection, flagging, and precursor/prediction segmentation.

Detection emits flags plus lead times only; the split of each flagged run
into precursor (pre-onset) and prediction (from onset on) parts is an
evaluation-time construct that needs the ground-truth anomalies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from poakit.core import (
    LabelSequence,
    ScoreSeries,
    SegmentSet,
    ValidationError,
    _freeze,
    allocatable,
    ambiguous_ends,
    binary_flags,
    run_bounds,
)

DEFAULT_GRID_SIZE = 256


@dataclass(frozen=True)
class Detection:
    """Thresholded score timeline: binary flags plus the flagged leads."""

    flags: np.ndarray
    threshold: float
    lead_times: np.ndarray

    def __post_init__(self):
        flags = binary_flags(self.flags, "flags")
        leads = np.asarray(self.lead_times, dtype=np.float64)
        if leads.shape != flags.shape:
            raise ValidationError("flags and lead_times must be 1-D and equal length")
        _freeze(self, flags=flags, lead_times=leads)

    def __len__(self) -> int:
        return self.flags.shape[0]


@dataclass(frozen=True)
class ThresholdSearchResult:
    threshold: float
    f1: float
    all_undefined: bool = False


def apply_threshold(scores: ScoreSeries, tau: float) -> Detection:
    """Flag every defined score >= tau; missing scores are never flagged."""
    if not math.isfinite(tau):
        raise ValidationError(f"threshold must be finite, got {tau}")
    defined = scores.defined
    flags = np.zeros(len(scores), dtype=np.int8)
    flags[defined & (scores.scores >= tau)] = 1
    leads = np.where(flags == 1, scores.lead_times, np.nan)
    return Detection(flags=flags, threshold=float(tau), lead_times=leads)


def default_grid(scores: ScoreSeries, n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """n evenly spaced quantiles of the defined scores, deduplicated, sorted."""
    if n < 1:
        raise ValidationError("grid size must be >= 1")
    defined = scores.scores[scores.defined]
    if defined.size == 0:
        raise ValidationError("no defined scores to build a threshold grid from")
    qs = np.linspace(0.0, 1.0, allocatable(n))
    return np.unique(np.quantile(defined, qs))


def best_f1_threshold(
    scores: ScoreSeries,
    labels: LabelSequence,
    metric_eval: Callable[[Detection], float | None],
    grid,
) -> ThresholdSearchResult:
    """Pick the grid threshold whose Detection maximizes the callback's F1.

    Ties go to the larger threshold (fewer alarms). A callback may signal an
    undefined F1 by returning None or NaN; if every candidate is undefined
    the result is (max grid value, 0) with ``all_undefined`` set.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValidationError("threshold grid must not be empty")
    if len(labels) != len(scores):
        raise ValidationError(
            f"labels length {len(labels)} != scores length {len(scores)}"
        )
    best: tuple[float, float] | None = None
    for tau in sorted(grid):
        f1 = metric_eval(apply_threshold(scores, tau))
        if f1 is None or (isinstance(f1, float) and math.isnan(f1)):
            continue
        f1 = float(f1)
        if best is None or f1 >= best[1]:
            best = (tau, f1)
    if best is None:
        return ThresholdSearchResult(threshold=max(grid), f1=0.0, all_undefined=True)
    return ThresholdSearchResult(threshold=best[0], f1=best[1])


def split_precursor_prediction(detection: Detection, labels, delta: int) -> SegmentSet:
    """Split each flagged run at the first anomaly onset inside it.

    ``labels`` are the ground-truth 0/1 flags, one per detection row (for
    example ``LabelSequence.flags``); their runs are the anomalies. Points of
    a flagged run strictly before the first onset inside it become the
    precursor, the rest the prediction. Runs containing no anomaly onset
    (including runs wholly inside an anomaly, or far from every anomaly) stay
    whole with no precursor. Flags are preserved exactly: the union of all
    precursor and prediction indices equals the flagged set. Everything is
    computed on int arrays; no Segment is built.
    """
    T = len(detection)
    labels = binary_flags(labels, "label flags")
    if labels.shape[0] != T:
        raise ValidationError(f"labels length {labels.shape[0]} != detection length {T}")
    a_s, a_e = run_bounds(labels)
    r_s, r_e = run_bounds(detection.flags)
    # first onset at or after each run's start; T stands in for "none left"
    onset = np.append(a_s, T)[np.searchsorted(a_s, r_s)]
    split = (onset <= r_e) & (onset > r_s)
    return SegmentSet(
        a_s, a_e, ambiguous_ends(a_s, a_e, delta, T),
        np.where(split, onset, r_s), r_e, np.where(split, r_s, -1), delta,
    )
