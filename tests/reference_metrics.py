"""Independent straight-from-the-definitions metric reference.

Everything here works on raw index sets with explicit loops, deliberately
sharing no code with the package's segment machinery, so the package can be
checked against it cell by cell.
"""

import math


def runs(binary):
    """Maximal runs of truthy values as (start, end_inclusive) pairs."""
    out = []
    start = None
    for i, b in enumerate(binary):
        if b and start is None:
            start = i
        elif not b and start is not None:
            out.append((start, i - 1))
            start = None
    if start is not None:
        out.append((start, len(binary) - 1))
    return out


def ref_structures(labels, flags, delta):
    """Anomaly / ambiguous / prediction / precursor index sets from raw flags."""
    T = len(labels)
    anomaly_runs = runs(labels)
    anomaly_points = {i for i, b in enumerate(labels) if b}
    anomalies = [set(range(s, e + 1)) for s, e in anomaly_runs]
    ambiguous = []
    for _, e in anomaly_runs:
        amb = set()
        j = e + 1
        while j < T and j not in anomaly_points and len(amb) < delta:
            amb.add(j)
            j += 1
        ambiguous.append(amb)
    onsets = [s for s, _ in anomaly_runs]
    predictions, precursors = [], []
    for s, e in runs(flags):
        onset = None
        for t in onsets:
            if s <= t <= e:
                onset = t
                break
        if onset is None or onset == s:
            predictions.append(set(range(s, e + 1)))
            precursors.append(set())
        else:
            precursors.append(set(range(s, onset)))
            predictions.append(set(range(onset, e + 1)))
    return anomalies, ambiguous, predictions, precursors


def ref_ambiguous_score(amb_set, p_set, delta):
    """Sigmoid weights of the window's predicted points, added in offset order."""
    total = 0.0
    for i in sorted(amb_set & p_set):
        offset = i - min(amb_set)
        scaled = -6.0 if delta <= 1 else -6.0 + 12.0 * offset / (delta - 1)
        total += 1.0 / (1.0 + math.exp(scaled))
    return total


def ref_overlap(a_set, p_set, pp_set, amb_set, delta):
    return (
        len(a_set & pp_set)
        + len(a_set & p_set)
        + ref_ambiguous_score(amb_set, p_set, delta)
    )


def ref_reward(a_set, pp_set, epsilon, k):
    onset = min(a_set)
    before = [i for i in pp_set if i < onset]
    if not before:
        return 0.0
    lead = onset - min(before)
    return math.exp(-k * (lead - epsilon) ** 2)


def _detected(ratio, theta):
    return ratio >= theta and ratio > 0.0


def ref_ptapr(labels, flags, theta, alpha, beta, gamma, delta, epsilon, k):
    """(ptar, ptap, f1) over raw label/flag vectors."""
    anomalies, ambiguous, predictions, precursors = ref_structures(labels, flags, delta)
    if not anomalies:
        raise ValueError("reference: no anomalies")

    detected = 0
    portion_sum = 0.0
    reward_sum = 0.0
    for a_set, amb_set in zip(anomalies, ambiguous):
        total = 0.0
        best_reward = 0.0
        for p_set, pp_set in zip(predictions, precursors):
            o = ref_overlap(a_set, p_set, pp_set, amb_set, delta)
            total += o
            if o > 0.0:
                best_reward = max(best_reward, ref_reward(a_set, pp_set, epsilon, k))
        ratio = total / len(a_set)
        if _detected(ratio, theta):
            detected += 1
        portion_sum += min(1.0, ratio)
        reward_sum += best_reward
    n_a = len(anomalies)
    ptar = alpha * (detected / n_a) + beta * (portion_sum / n_a) + gamma * (reward_sum / n_a)

    if not predictions:
        ptap = 0.0
    else:
        detected_p = 0
        portion_p = 0.0
        reward_p = 0.0
        for p_set, pp_set in zip(predictions, precursors):
            total = 0.0
            best_reward = 0.0
            for a_set, amb_set in zip(anomalies, ambiguous):
                o = ref_overlap(a_set, p_set, pp_set, amb_set, delta)
                total += o
                if o > 0.0:
                    best_reward = max(best_reward, ref_reward(a_set, pp_set, epsilon, k))
            ratio = total / len(p_set)
            if _detected(ratio, theta):
                detected_p += 1
            portion_p += min(1.0, ratio)
            reward_p += best_reward
        n_p = len(predictions)
        ptap = alpha * (detected_p / n_p) + beta * (portion_p / n_p) + gamma * (reward_p / n_p)

    f1 = 0.0 if ptar + ptap == 0 else 2 * ptar * ptap / (ptar + ptap)
    return ptar, ptap, f1


def ref_tapr(labels, flags, theta, tapr_alpha, delta):
    """(tar, tap, f1): flagged runs used whole, overlap |a n p| + S(a', p)."""
    anomalies, ambiguous, _, _ = ref_structures(labels, flags, delta)
    if not anomalies:
        raise ValueError("reference: no anomalies")
    predictions = [set(range(s, e + 1)) for s, e in runs(flags)]

    detected = 0
    portion_sum = 0.0
    for a_set, amb_set in zip(anomalies, ambiguous):
        total = 0.0
        for p_set in predictions:
            total += len(a_set & p_set) + ref_ambiguous_score(amb_set, p_set, delta)
        ratio = total / len(a_set)
        if _detected(ratio, theta):
            detected += 1
        portion_sum += min(1.0, ratio)
    n_a = len(anomalies)
    tar = tapr_alpha * (detected / n_a) + (1 - tapr_alpha) * (portion_sum / n_a)

    if not predictions:
        tap = 0.0
    else:
        detected_p = 0
        portion_p = 0.0
        for p_set in predictions:
            total = 0.0
            for a_set, amb_set in zip(anomalies, ambiguous):
                total += len(a_set & p_set) + ref_ambiguous_score(amb_set, p_set, delta)
            ratio = total / len(p_set)
            if _detected(ratio, theta):
                detected_p += 1
            portion_p += min(1.0, ratio)
        n_p = len(predictions)
        tap = tapr_alpha * (detected_p / n_p) + (1 - tapr_alpha) * (portion_p / n_p)

    f1 = 0.0 if tar + tap == 0 else 2 * tar * tap / (tar + tap)
    return tar, tap, f1


def ref_prf(flags, labels):
    tp = sum(1 for f, l in zip(flags, labels) if f and l)
    fp = sum(1 for f, l in zip(flags, labels) if f and not l)
    fn = sum(1 for f, l in zip(flags, labels) if not f and l)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def ref_point_adjust(flags, labels, k_percent):
    out = list(flags)
    for s, e in runs(labels):
        width = e - s + 1
        hit_count = sum(flags[s : e + 1])
        fraction = hit_count / width
        hit = fraction > 0.0 if k_percent == 0.0 else fraction >= k_percent / 100.0
        if hit:
            for i in range(s, e + 1):
                out[i] = 1
    return out


def ref_pa_k(flags, labels, k_grid):
    ks = sorted(set(float(k) for k in k_grid) | {0.0, 100.0})
    f1s = []
    for k in ks:
        adjusted = ref_point_adjust(flags, labels, k)
        f1s.append(ref_prf(adjusted, labels)[2])
    auc = 0.0
    for i in range(len(ks) - 1):
        auc += (ks[i + 1] - ks[i]) / 100.0 * (f1s[i + 1] + f1s[i]) / 2.0
    return f1s[0], ref_prf(flags, labels)[2], auc
