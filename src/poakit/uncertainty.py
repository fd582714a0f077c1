"""Ensemble disagreement -> per-timestamp precursor scores.

The raw score for a (window, horizon step, variable) cell is the sample
variance of the member forecasts at that cell. Because disagreement grows
with the horizon, scores are z-normalized per (step, variable) against
held-out validation statistics before a single threshold is applied, and the
per-window scores are finally attributed to the future timestamps they talk
about.

Every kernel takes and returns plain numpy arrays: raw and normalized scores
are W x L_y x c. The variable axis is collapsed (mean by default, max for
sensitivity work) before collation; per-variable timelines are available by
passing a single variable's W x L_y slice of the normalized array to
:func:`collate_timeline` directly.
"""

from __future__ import annotations

import numpy as np

from poakit.core import NumericError, ScoreSeries, ValidationError, _refuse_first, allocatable
from poakit.forecast import ForecastCube

DEFAULT_EPS_SIGMA = 1e-8
# Windows are reduced in blocks of about this many bytes of predictions: big
# enough to amortise numpy's per-call cost, small enough to stay in cache.
_BLOCK_BYTES = 1 << 18


def ensemble_variance(predictions: np.ndarray) -> np.ndarray:
    """Per-cell disagreement of member forecasts, members on axis -3: one
    window's M x L_y x c array gives L_y x c, a block's B x M x L_y x c gives
    B x L_y x c. Sample variance (divisor M-1) across members, in two exact
    passes (subtract the member mean, then average the squared deviations)."""
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.ndim < 3:
        raise ValidationError(f"need M x L_y x c member forecasts, got shape {preds.shape}")
    M = preds.shape[-3]
    if M < 2:
        raise ValidationError(
            f"ensemble too small for variance: need >= 2 members, got {M}"
        )
    dev = preds - preds.mean(axis=-3, keepdims=True)
    return (dev**2).sum(axis=-3) / (M - 1)


def uncertainty_from_ensembles(cube: ForecastCube) -> tuple[np.ndarray, np.ndarray]:
    """W x L_y x c variances in window-id order, plus the window origins.

    The cube is reduced in blocks of about ``_BLOCK_BYTES`` of windows, so no
    second W x M x L_y x c array is made.
    """
    preds = cube.predictions
    if not len(cube):
        raise ValidationError("no ensembles to score")
    block = max(1, _BLOCK_BYTES // max(1, preds[0].nbytes))
    values = np.empty((len(preds), *preds.shape[2:]))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        for start in range(0, len(preds), block):
            values[start:start + block] = ensemble_variance(preds[start:start + block])
    _refuse_first(~np.isfinite(values), lambda w, step, v: (
        f"window {cube.window_ids[w]}: the ensemble variance at step {step + 1}, "
        f"variable {v} overflows float64"), NumericError)
    return values, cube.origins


def horizon_stats(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std (divisor N) per (step, variable) cell over
    the W validation windows of a W x L_y x c array."""
    if values.shape[0] < 2:
        raise ValidationError(
            f"need >= 2 windows for horizon statistics, got {values.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        mu = values.mean(axis=0)
        sigma = np.sqrt(((values - mu[None]) ** 2).mean(axis=0))
    _refuse_first(~np.isfinite(sigma), lambda step, v: (
        f"the variance spread at step {step + 1}, variable {v} overflows float64"), NumericError)
    return mu, sigma


def _check_eps_sigma(eps_sigma: float) -> None:
    if not 0 < eps_sigma < np.inf:  # refuses nan too
        raise ValidationError(f"eps_sigma must be finite and > 0, got {eps_sigma}")


def normalize(values: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
              eps_sigma: float = DEFAULT_EPS_SIGMA) -> np.ndarray:
    """Z-score each cell of a W x L_y x c array against validation statistics;
    sigma is floored at ``eps_sigma`` (finite, > 0) so constant cells stay finite."""
    _check_eps_sigma(eps_sigma)
    if mu.shape != values.shape[1:]:
        raise ValidationError(
            f"stats shape {mu.shape} does not match tensor cells {values.shape[1:]}"
        )
    out = np.asarray(values, dtype=np.float64) - mu[None]
    out /= np.maximum(sigma, eps_sigma)[None]
    return out


def aggregate_variables(scores: np.ndarray, mode: str = "mean") -> np.ndarray:
    """Collapse the variable (last) axis of a score array to one signal."""
    scores = np.asarray(scores, dtype=np.float64)
    if mode == "mean":
        return scores.mean(axis=-1)
    if mode == "max":
        return scores.max(axis=-1)
    raise ValidationError(f"aggregation mode must be 'mean' or 'max', got {mode!r}")


def collate_timeline(
    per_window_scores: np.ndarray,
    origins: np.ndarray,
    series_len: int,
    mode: str = "max",
) -> ScoreSeries:
    """Attribute window scores to the timestamps they forecast.

    A window with origin o scores timestamps o+1 .. o+L_y (step i scores
    o+i); timestamps beyond the series end are dropped. Every origin must
    lie inside the series, so no window is dropped whole. When several windows
    score the same timestamp:

    - ``max``: keep the highest score (ties: the smallest step wins),
    - ``latest``: keep the smallest step (most recently emitted evidence),
    - ``earliest``: keep the largest step (longest lead).

    Windows sharing an origin count as emitted in index order. The kept
    candidate's step becomes the timestamp's lead time. Every score must be
    finite, also one whose timestamp lies beyond the series end.
    """
    scores2d = np.asarray(per_window_scores, dtype=np.float64)
    origins = np.asarray(origins, dtype=np.int64)
    if scores2d.ndim != 2 or origins.shape != (scores2d.shape[0],):
        raise ValidationError("need W x L_y scores and W origins")
    _refuse_first(~np.isfinite(scores2d), lambda w, i: (
        f"window {w} step {i + 1} score is not finite: {scores2d[w, i]}"))
    if np.any(origins < 0):
        raise ValidationError(f"window origins must be >= 0, got {int(origins.min())}")
    last_origin = int(origins.max(initial=0))
    if series_len <= last_origin:
        raise ValidationError(
            f"series length {series_len} must exceed the largest window origin {last_origin}"
        )
    if mode not in ("max", "latest", "earliest"):
        raise ValidationError(f"collation mode must be max/latest/earliest, got {mode!r}")
    W, L_y = scores2d.shape
    steps = np.arange(1, L_y + 1)
    taus = origins[:, None] + steps
    # The order the tie rules read a timestamp's candidates in: by origin
    # (so by decreasing step), then by window index. Larger arrival = later.
    arrival = (L_y - steps) * W + np.arange(W)[:, None]
    fits = taus < series_len
    taus, cand, arrival = taus[fits], scores2d[fits], arrival[fits]
    last = np.full(allocatable(series_len), -1)  # -1: no candidate
    np.maximum.at(last, taus, arrival)
    if mode == "max":  # the last arrival of the largest score
        best = np.full(series_len, -np.inf)
        np.maximum.at(best, taus, cand)
        top = cand == best[taus]
        win = np.full(series_len, -1)
        np.maximum.at(win, taus[top], arrival[top])
    elif mode == "latest":
        win = last
    else:  # earliest: the first arrival, down from the last one
        win = last.copy()
        np.minimum.at(win, taus, arrival)
    out = np.full(series_len, np.nan)
    leads = np.full(series_len, np.nan)
    scored = np.flatnonzero(last >= 0)
    w, step_index = win[scored] % W, L_y - 1 - win[scored] // W
    out[scored] = scores2d[w, step_index]
    leads[scored] = step_index + 1
    return ScoreSeries(scores=out, lead_times=leads)


def score_timeline(
    test_ensembles: ForecastCube,
    validation_ensembles: ForecastCube,
    series_len: int | None = None,
    agg: str = "mean",
    collate: str = "max",
    eps_sigma: float = DEFAULT_EPS_SIGMA,
    normalize_scores: bool = True,
    sources: tuple[str, str] = ("test forecasts", "validation forecasts"),
) -> ScoreSeries:
    """Full scoring pipeline: variance -> validation stats -> z-score ->
    variable aggregation -> timeline collation.

    ``series_len`` defaults to max test origin + 1 (a stride-1 window sweep
    ends at the series' last row). ``normalize_scores=False`` collates raw
    variances instead, but ``eps_sigma`` is checked either way. An overflow is
    a NumericError that starts with its cube's name in ``sources`` (test, validation).
    """
    _check_eps_sigma(eps_sigma)
    source = sources[0]  # the cube the next overflow would come from
    try:
        values, origins = uncertainty_from_ensembles(test_ensembles)
        if normalize_scores:
            if set(validation_ensembles.member_ids) != set(test_ensembles.member_ids):
                raise ValidationError(
                    f"validation members {list(validation_ensembles.member_ids)} "
                    f"differ from test members {list(test_ensembles.member_ids)}")
            (L_y, c), (L_v, c_v) = (cube.predictions.shape[2:]
                                    for cube in (test_ensembles, validation_ensembles))
            if (L_v, c_v) != (L_y, c):
                raise ValidationError(f"{sources[1]}: {L_v} steps x {c_v} variables differ "
                                      f"from {sources[0]}'s {L_y} x {c}")
            source = sources[1]
            stats = horizon_stats(uncertainty_from_ensembles(validation_ensembles)[0])
            source = sources[0]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            values = normalize(values, *stats, eps_sigma) if normalize_scores else values
            values = aggregate_variables(values, agg)  # frees the W x L_y x c array
        _refuse_first(~np.isfinite(values), lambda w, step: (
            f"window {test_ensembles.window_ids[w]}: the score at step {step + 1} "
            "overflows float64"), NumericError)
    except NumericError as exc:
        raise NumericError(f"{source}: {exc}") from None
    if series_len is None:
        series_len = int(origins.max()) + 1
    return collate_timeline(values, origins, series_len, collate)
