"""Segment-aware evaluation metrics for precursor and anomaly detection.

Implements the precursor-aware precision/recall family (PTaP / PTaR / PTaPR
with the overlap-threshold sweep and its AUC), the segment-aware TaPR
baseline, the PA%K point-adjustment protocol, and plain point-wise P/R/F1.

Scoring model, in brief: each ground-truth anomaly ``a`` earns credit from
every prediction ``p`` through an overlap score

    O(a, p, p') = |a n p'| + |a n p| + S(a', p)

where ``p'`` is the precursor run attached to ``p`` and ``S`` gives
sigmoid-decayed partial credit for alarms that persist into the ambiguous
window ``a'`` trailing the anomaly. Detection membership, coverage and an
early-warning reward are combined as weighted components on both the recall
(per anomaly) and precision (per prediction) side.

TaPR is the same side score on the segments with every precursor folded
back into its prediction, weighted (tapr_alpha, 1 - tapr_alpha, 0).

A segment with zero credit never counts as detected, even at overlap
threshold 0, mirroring the strictly-positive rule PA%K uses at K=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from poakit.core import Segment, SegmentSet, ValidationError, binary_flags, run_bounds

DEFAULT_THETA_GRID_SIZE = 101


@dataclass(frozen=True)
class MetricParams:
    """Knobs of the metric family.

    theta: minimum overlap ratio for a segment to count as detected.
    alpha/beta/gamma: weights of the detection / coverage / early components
        (must sum to 1).
    delta: ambiguous-window length used when building segment sets.
    epsilon: optimal lead time of the early reward; k: its decay sharpness.
    tapr_alpha: detection-vs-coverage weight of the TaPR baseline.
    """

    theta: float = 0.0
    alpha: float = 1.0 / 3.0
    beta: float = 1.0 / 3.0
    gamma: float = 1.0 / 3.0
    delta: int = 24
    epsilon: int = 7
    k: float = 0.001
    tapr_alpha: float = 0.5

    def __post_init__(self):
        for f in fields(self):  # NaN and infinity pass every range check below
            value = getattr(self, f.name)  # an int is finite; math.isfinite overflows past 1e308
            if not isinstance(value, int) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValidationError(f"theta must be in [0, 1], got {self.theta}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValidationError("component weights must be >= 0")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-12:
            raise ValidationError(
                f"alpha+beta+gamma must equal 1, got {self.alpha + self.beta + self.gamma}"
            )
        if self.delta < 0:
            raise ValidationError("delta must be >= 0")
        if self.epsilon < 1:
            raise ValidationError("epsilon must be >= 1")
        for name in ("delta", "epsilon"):  # the int64 range of every integer in poakit's files
            if getattr(self, name) >= 2**63:
                raise ValidationError(f"{name} must be < 2**63, got {getattr(self, name)}")
        if self.k <= 0:
            raise ValidationError("k must be > 0")
        if not 0.0 <= self.tapr_alpha <= 1.0:
            raise ValidationError("tapr_alpha must be in [0, 1]")


@dataclass(frozen=True)
class ComponentScore:
    """One side (recall or precision): weighted score plus its components."""

    score: float
    detection: float
    portion: float
    early: float
    undefined: bool = False  # set when there were no predictions to score


@dataclass(frozen=True)
class MetricReport:
    ptar: float
    ptap: float
    f1: float
    recall: ComponentScore
    precision: ComponentScore
    anomaly_coverage: tuple[float, ...]
    anomaly_reward: tuple[float, ...]
    prediction_coverage: tuple[float, ...]
    prediction_reward: tuple[float, ...]
    params: MetricParams  # whose weights scored both sides; ptapr_theta_sweep reuses them


@dataclass(frozen=True)
class ThetaSweep:
    """Recall- and precision-side scores and their F1 at each overlap threshold."""

    thetas: np.ndarray
    ptar: np.ndarray
    ptap: np.ndarray
    f1: np.ndarray
    auc: float
    f1_at_0: float
    f1_at_1: float


@dataclass(frozen=True)
class PaKResult:
    k_values: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    f1_pa: float  # K = 0, the classic point-adjusted F1
    f1_pointwise: float  # no adjustment at all
    auc: float


def sigmoid_position_weight(offset: int, delta: int) -> float:
    """Weight of the ambiguous position ``offset`` steps past the anomaly.

    Positions are mapped linearly onto [-6, 6] across the delta-wide window
    and passed through a falling sigmoid, so credit decays from ~1 right
    after the anomaly to ~0 at the window's far end. A window of one position
    (delta <= 1) sits at the near end.
    """
    if offset < 0:
        raise ValidationError("ambiguous offset must be >= 0")
    return float(_sigmoid_weights(np.array([offset]), delta)[0])


def _sigmoid_weights(offsets: np.ndarray, delta: int) -> np.ndarray:
    """``sigmoid_position_weight`` at each offset: the exponent on the array,
    the exponential by ``math.exp``, as in ``_lead_reward``."""
    scaled = -6.0 + 12.0 * offsets / (delta - 1) if delta > 1 else np.full(offsets.shape, -6.0)
    return 1.0 / (1.0 + np.array(list(map(math.exp, scaled.tolist()))))


def _window_credit(first: np.ndarray, last: np.ndarray, delta: int) -> np.ndarray:
    """Credit of each window of ambiguous offsets first..last: its weights added
    left to right by one ``np.cumsum`` per distinct first offset, so every Python
    gives the same floats (builtin ``sum()`` compensates from 3.12 on). One sort
    groups the windows by offset, each group's last offsets ascending, so each
    sum runs only as far as its group reads. The weights at offsets
    0..``last.max()`` are built for this call alone, so its work and memory
    follow the longest window it credits, which the series bounds, not delta."""
    table = _sigmoid_weights(np.arange(last.max(initial=-1) + 1), delta)
    order = np.lexsort((last, first))
    first, last = first[order], last[order]
    bounds = [0, *(np.flatnonzero(first[1:] != first[:-1]) + 1).tolist(), first.size]
    credit = np.empty(first.shape)
    for lo, hi in zip(bounds, bounds[1:]) if first.size else ():
        offset = first[lo]
        credit[order[lo:hi]] = np.cumsum(table[offset:last[hi - 1] + 1])[last[lo:hi] - offset]
    return credit


def _lead_reward(leads: np.ndarray, epsilon: int, k: float) -> np.ndarray:
    """exp(-k (lead - epsilon)^2) at each lead: the exponent on the array, the
    exponential by ``math.exp``, whose bits ``np.exp`` does not always give."""
    distance = leads - float(epsilon)  # in float64: an int64 square wraps past 3.04e9
    with np.errstate(over="ignore"):  # a huge k gives -inf, whose exp is the limit 0.0
        exponent = -k * distance**2
    return np.array(list(map(math.exp, exponent.tolist())))


def early_reward(a: Segment, p_prime: Segment | None, epsilon: int, k: float) -> float:
    """Gaussian reward for warning ``lead`` steps before the anomaly onset.

    The reward peaks at 1 when the lead equals epsilon and decays with
    sharpness k. The lead is measured at the precursor's first point (the
    moment the alert actually started). No precursor point before the onset
    means no reward.
    """
    if k <= 0:
        raise ValidationError("k must be > 0")
    if epsilon < 1:
        raise ValidationError("epsilon must be >= 1")
    if p_prime is None or p_prime.start >= a.start:
        return 0.0
    return float(_lead_reward(np.array([a.start - p_prime.start]), epsilon, k)[0])


def _overlap_len(starts, ends, other_starts, other_ends) -> np.ndarray:
    """Points shared by every (row, column) pair of segments, as a matrix."""
    shared = np.minimum(ends, other_ends) - np.maximum(starts, other_starts) + 1
    return np.maximum(shared, 0)


def _diagnostics(segments: SegmentSet, params: MetricParams):
    """Per-anomaly and per-prediction coverage ratios and early rewards, as the
    pairs (anomaly coverage, anomaly reward), (prediction coverage, prediction
    reward).

    The overlap credit of every (anomaly, prediction) pair fills an
    n_a x n_p matrix, built by broadcasting over the segment arrays. Only
    pairs whose prediction reaches into an ambiguous window get sigmoid
    credit, and only pairs with a precursor before the onset get a reward;
    those few take it from ``_window_credit`` and ``_lead_reward``, as
    ``early_reward`` does, so every reward is the float that one gives.

    The reward pairing requires a strictly positive overlap score between the
    anomaly and the prediction; the best reward among paired partners counts.
    """
    a_s = segments.anomaly_starts[:, None]
    a_e = segments.anomaly_ends[:, None]
    p_s, p_e = segments.prediction_starts, segments.prediction_ends
    pp_s = segments.precursor_starts
    has_precursor = pp_s >= 0
    early_len = np.where(has_precursor, _overlap_len(a_s, a_e, pp_s, p_s - 1), 0)
    overlap = (early_len + _overlap_len(a_s, a_e, p_s, p_e)).astype(float)

    w_s, w_e = a_e + 1, segments.ambiguous_ends[:, None]
    first = np.maximum(w_s, p_s) - w_s
    last = np.minimum(w_e, p_e) - w_s
    ai, pi = np.nonzero(last >= first)
    overlap[ai, pi] += _window_credit(first[ai, pi], last[ai, pi], segments.delta)

    reward = np.zeros(overlap.shape)
    ai, pi = np.nonzero((overlap > 0.0) & has_precursor & (pp_s < a_s))
    reward[ai, pi] = _lead_reward(segments.anomaly_starts[ai] - pp_s[pi], params.epsilon, params.k)
    a_len = (segments.anomaly_ends - segments.anomaly_starts + 1).astype(float)
    p_len = (p_e - p_s + 1).astype(float)
    return ((overlap.sum(axis=1) / a_len, reward.max(axis=1, initial=0.0)),
            (overlap.sum(axis=0) / p_len, reward.max(axis=0, initial=0.0)))


def weighted_component_score(
    detection: float, portion: float, early: float, params: MetricParams
) -> float:
    """Combine the three components with the alpha/beta/gamma weights."""
    return params.alpha * detection + params.beta * portion + params.gamma * early


def _require_anomalies(segments: SegmentSet) -> None:
    if segments.anomaly_starts.size == 0:
        raise ValidationError("no ground-truth segments: recall is undefined")


def _side(coverage: np.ndarray, reward: np.ndarray, thetas, params: MetricParams):
    """One side's (score, detection, portion, early) from its per-segment
    coverage and reward. Score and detection are taken at ``thetas``, one
    float or an array of them; portion and early do not depend on theta.

    A segment is detected at theta when its coverage is >= theta and > 0:
    one sort of the credited coverages counts them at every theta, and the
    count over the segment count rounds once, as ``np.mean`` of the flags
    does. A side with no segments (no predictions) scores 0.
    """
    if coverage.size == 0:
        zeros = np.zeros_like(thetas)
        return zeros, zeros, 0.0, 0.0
    credited = np.sort(coverage[coverage > 0.0])
    detection = (credited.size - np.searchsorted(credited, thetas)) / coverage.size
    portion = float(np.mean(np.minimum(1.0, coverage)))
    early = float(np.mean(reward))
    return weighted_component_score(detection, portion, early, params), detection, portion, early


def _component(coverage: np.ndarray, reward: np.ndarray, params: MetricParams) -> ComponentScore:
    """One side's components at ``params.theta``; undefined when it has no segments."""
    score, detection, portion, early = _side(coverage, reward, params.theta, params)
    return ComponentScore(float(score), float(detection), portion, early,
                          undefined=coverage.size == 0)


def ptapr_f1(ptar_value: float, ptap_value: float) -> float:
    """Harmonic mean of the recall- and precision-side scores; 0 when both are 0.

    Elementwise over arrays of scores; a pair of floats gives a float.
    """
    ptar, ptap = np.asarray(ptar_value), np.asarray(ptap_value)
    for name, value in (("ptar", ptar), ("ptap", ptap)):
        outside = ~((0.0 <= value) & (value <= 1.0 + 1e-12))
        if outside.any():
            raise ValidationError(f"{name} must be in [0, 1], got {value[outside][0]}")
    total = ptar + ptap
    f1 = np.divide(2.0 * ptar * ptap, total, out=np.zeros(total.shape), where=total != 0.0)
    return f1 if f1.ndim else float(f1)


def ptapr_report(segments: SegmentSet, params: MetricParams) -> MetricReport:
    """Recall, precision and F1 at ``params.theta`` plus per-segment diagnostics."""
    _require_anomalies(segments)
    (a_coverage, a_reward), (p_coverage, p_reward) = _diagnostics(segments, params)
    recall = _component(a_coverage, a_reward, params)
    precision = _component(p_coverage, p_reward, params)
    return MetricReport(
        ptar=recall.score,
        ptap=precision.score,
        f1=ptapr_f1(recall.score, precision.score),
        recall=recall,
        precision=precision,
        anomaly_coverage=tuple(a_coverage),
        anomaly_reward=tuple(a_reward),
        prediction_coverage=tuple(p_coverage),
        prediction_reward=tuple(p_reward),
        params=params,
    )


def early_prf(report: MetricReport) -> tuple[float, float, float]:
    """A report's early-warning components alone: (precision_e, recall_e, their F1)."""
    precision_e, recall_e = report.precision.early, report.recall.early
    return precision_e, recall_e, ptapr_f1(recall_e, precision_e)


def auc_trapezoid(xs: np.ndarray, ys: np.ndarray) -> float:
    """Trapezoidal area under (xs, ys) with xs sorted ascending."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValidationError("need matching 1-D arrays with >= 2 points")
    if np.any(np.diff(xs) < 0):
        raise ValidationError("xs must be sorted ascending")
    return float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))


def _closed_grid(values, top: float, name: str, plural: str) -> np.ndarray:
    """``values`` sorted and de-duplicated, all within [0, top], with the
    endpoints 0 and ``top`` added when absent. A NaN sorts last and fails
    ``<= top``; the neighbour mask is ``np.unique``'s, without its ``numpy.ma`` import."""
    grid = np.sort(np.fromiter(values, dtype=float))
    if grid.size == 0:
        raise ValidationError(f"{name} grid must not be empty")
    if not (grid[0] >= 0.0 and grid[-1] <= top):
        raise ValidationError(f"{plural} must lie within [0, {top:g}]")
    grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
    if grid[0] != 0.0:
        grid = np.concatenate([[0.0], grid])
    if grid[-1] != top:
        grid = np.concatenate([grid, [top]])
    return grid


def ptapr_theta_sweep(report: MetricReport, thetas) -> ThetaSweep:
    """A report's F1 across overlap thresholds, with its trapezoidal AUC over [0, 1].

    The grid is sorted and the endpoints 0 and 1 are added when absent, so
    the reported AUC always spans the full range. Only the detection rates
    depend on theta, so each is read off the report's per-segment credit
    with the weights that scored it.
    """
    thetas = _closed_grid(thetas, 1.0, "theta", "thetas")
    recall = _side(np.asarray(report.anomaly_coverage), report.anomaly_reward, thetas,
                   report.params)[0]
    precision = _side(np.asarray(report.prediction_coverage), report.prediction_reward,
                      thetas, report.params)[0]
    f1 = ptapr_f1(recall, precision)
    return ThetaSweep(
        thetas=thetas,
        ptar=recall,
        ptap=precision,
        f1=f1,
        auc=auc_trapezoid(thetas, f1),
        f1_at_0=float(f1[0]),
        f1_at_1=float(f1[-1]),
    )


def merge_precursors_into_predictions(segments: SegmentSet) -> SegmentSet:
    """Fold each precursor back into its prediction (the original flagged runs)."""
    pp_s = segments.precursor_starts
    return SegmentSet(
        segments.anomaly_starts, segments.anomaly_ends, segments.ambiguous_ends,
        np.where(pp_s >= 0, pp_s, segments.prediction_starts), segments.prediction_ends,
        np.full(pp_s.shape, -1), segments.delta,
    )


def tapr(segments: SegmentSet, params: MetricParams) -> MetricReport:
    """Segment-aware TaPR baseline at ``params.theta``: no precursor notion, no
    early reward. Its ``ptar``/``ptap`` hold TaR/TaP.

    PTaPR on the segments with every precursor folded back into its
    prediction, so the overlap credit is |a n p| + S(a', p), and detection
    and coverage weighted by tapr_alpha / (1 - tapr_alpha).
    """
    weights = replace(params, alpha=params.tapr_alpha, beta=1.0 - params.tapr_alpha, gamma=0.0)
    return ptapr_report(merge_precursors_into_predictions(segments), weights)


def _binary_pair(flags, labels) -> tuple[np.ndarray, np.ndarray]:
    flags, labels = binary_flags(flags, "flags"), binary_flags(labels, "labels")
    if flags.shape != labels.shape:
        raise ValidationError("flags and labels must be 1-D and equal length")
    return flags, labels


def pointwise_prf(flags, labels) -> tuple[float, float, float]:
    """Plain point-wise precision, recall, F1 (0 where undefined)."""
    flags, labels = _binary_pair(flags, labels)
    tp = float(np.sum((flags == 1) & (labels == 1)))
    fp = float(np.sum((flags == 1) & (labels == 0)))
    fn = float(np.sum((flags == 0) & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return precision, recall, ptapr_f1(recall, precision)


def point_adjust(flags, labels, k_percent: float) -> np.ndarray:
    """PA%K adjustment: fully flag each anomaly segment that is >= K% covered.

    At K = 0 a single flagged point suffices (strictly positive coverage).
    Flags outside anomaly segments are left untouched.
    """
    flags, labels = _binary_pair(flags, labels)
    if not 0.0 <= k_percent <= 100.0:
        raise ValidationError(f"K must be in [0, 100], got {k_percent}")
    starts, ends = run_bounds(labels)
    flagged = np.concatenate([[0], np.cumsum(flags)])  # flags before each index
    lengths = ends - starts + 1
    # an exact count over the run length rounds once, as the run's np.mean does
    fraction = (flagged[ends + 1] - flagged[starts]) / lengths
    hit = fraction > 0.0 if k_percent == 0.0 else fraction >= k_percent / 100.0
    adjusted = flags.copy()
    adjusted[labels == 1] |= np.repeat(hit, lengths)
    return adjusted


def pa_k_suite(flags, labels, k_grid=None) -> PaKResult:
    """Point-adjusted P/R/F1 across K plus the trapezoidal AUC over K in [0, 100].

    The K axis is normalized to [0, 1] for the AUC; endpoints 0 and 100 are
    added when the grid lacks them.
    """
    flags, labels = _binary_pair(flags, labels)
    if k_grid is None:
        k_grid = np.arange(0.0, 101.0, 10.0)
    ks = _closed_grid(k_grid, 100.0, "K", "K values")
    precision = np.empty_like(ks)
    recall = np.empty_like(ks)
    f1 = np.empty_like(ks)
    for idx, k in enumerate(ks):
        adjusted = point_adjust(flags, labels, k)
        precision[idx], recall[idx], f1[idx] = pointwise_prf(adjusted, labels)
    _, _, f1_pointwise = pointwise_prf(flags, labels)
    return PaKResult(
        k_values=ks,
        precision=precision,
        recall=recall,
        f1=f1,
        f1_pa=float(f1[0]),
        f1_pointwise=f1_pointwise,
        auc=auc_trapezoid(ks / 100.0, f1),
    )
