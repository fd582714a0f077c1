"""Window-at-a-time reference kernels for the forecast -> score path, and
the theta-at-a-time side scoring of the PTaPR/TaPR metrics.

The package reduces whole blocks of windows and collates without a window
loop, and scores a whole theta grid at once; these are the loops it
replaced, kept as written so the tests can require bit-identical results on
any input.
"""

import numpy as np

from poakit.core import ValidationError
from poakit.forecast import predict_batch
from poakit.metrics import ComponentScore


def ensemble_variance(predictions):
    """One window's M x L_y x c forecasts -> L_y x c sample variances."""
    preds = np.asarray(predictions, dtype=np.float64)
    M = preds.shape[0]
    dev = preds - preds.mean(axis=0)
    return (dev**2).sum(axis=0) / (M - 1)


def uncertainty_from_ensembles(ensembles):
    """W x L_y x c variances in window-id order, one window at a time."""
    ordered = sorted(ensembles, key=lambda e: e.window_id)
    values = np.stack([ensemble_variance(e.predictions) for e in ordered])
    origins = np.array([e.origin for e in ordered], dtype=np.int64)
    return values, origins


def collate_timeline(scores2d, origins, series_len, mode):
    """(scores, lead times) from a loop over windows in origin order."""
    scores2d = np.asarray(scores2d, dtype=np.float64)
    origins = np.asarray(origins, dtype=np.int64)
    L_y = scores2d.shape[1]
    out = np.full(series_len, np.nan)
    leads = np.full(series_len, np.nan)
    for w in np.argsort(origins, kind="stable"):
        origin = origins[w]
        lo = origin + 1
        hi = min(origin + L_y, series_len - 1)
        if hi < lo:
            continue
        steps = np.arange(lo - origin, hi - origin + 1)
        taus = origin + steps
        cand = scores2d[w, steps - 1]
        if mode == "max":
            take = np.isnan(out[taus]) | (cand >= out[taus])
        elif mode == "latest":
            take = np.ones_like(taus, dtype=bool)
        else:
            take = np.isnan(out[taus])
        out[taus[take]] = cand[take]
        leads[taus[take]] = steps[take]
    return out, leads


def moving_average(inputs, width, horizon):
    """Recursive moving-average forecasts, the window rebuilt every step."""
    W, _, c = inputs.shape
    buf = inputs[:, -width:, :].copy()
    out = np.empty((W, horizon, c))
    for h in range(horizon):
        nxt = buf.mean(axis=1)
        out[:, h, :] = nxt
        buf = np.concatenate([buf[:, 1:, :], nxt[:, None, :]], axis=1)
    return out


def ar_ols(inputs, coef, horizon):
    """Recursive AR(p) forecasts from (p+1) x c coefficients, intercept first."""
    W, _, c = inputs.shape
    p = coef.shape[0] - 1
    buf = inputs[:, -p:, :].copy()
    out = np.empty((W, horizon, c))
    for h in range(horizon):
        nxt = np.broadcast_to(coef[0], (W, c)).copy()
        for j in range(1, p + 1):
            nxt += coef[j] * buf[:, -j, :]
        out[:, h, :] = nxt
        buf = np.concatenate([buf[:, 1:, :], nxt[:, None, :]], axis=1)
    return out


def forecast_ensembles(members, windows, horizon):
    """W x M x L_y x c forecasts from one stack of every window's input and
    one whole-batch prediction per member, members in member_id order."""
    ordered = sorted(members, key=lambda m: m.member_id)
    inputs = np.stack([w.input for w in windows])
    return np.stack([predict_batch(m, inputs, horizon) for m in ordered], axis=1)


def side_score(coverage, reward, theta, params):
    """One side's components at one theta from its per-segment coverage and
    reward; a side with no segments scores 0 and is marked undefined."""
    if coverage.size == 0:
        return ComponentScore(0.0, 0.0, 0.0, 0.0, undefined=True)
    detection = float(np.mean((coverage >= theta) & (coverage > 0.0)))
    portion = float(np.mean(np.minimum(1.0, coverage)))
    early = float(np.mean(reward))
    return ComponentScore(
        score=params.alpha * detection + params.beta * portion + params.gamma * early,
        detection=detection,
        portion=portion,
        early=early,
    )


def ptapr_f1(ptar_value, ptap_value):
    """Harmonic mean of two side scores; 0 when both are 0."""
    for name, value in (("ptar", ptar_value), ("ptap", ptap_value)):
        if not 0.0 <= value <= 1.0 + 1e-12:
            raise ValidationError(f"{name} must be in [0, 1], got {value}")
    if ptar_value + ptap_value == 0.0:
        return 0.0
    return 2.0 * ptar_value * ptap_value / (ptar_value + ptap_value)


def theta_curve(anomaly, prediction, thetas, params):
    """(recall, precision, F1) arrays over ``thetas``, one theta at a time;
    ``anomaly`` and ``prediction`` are each side's (coverage, reward)."""
    recall = np.empty_like(thetas)
    precision = np.empty_like(thetas)
    f1 = np.empty_like(thetas)
    for idx, theta in enumerate(thetas):
        r = side_score(*anomaly, theta, params).score
        p = side_score(*prediction, theta, params).score
        recall[idx], precision[idx], f1[idx] = r, p, ptapr_f1(r, p)
    return recall, precision, f1
