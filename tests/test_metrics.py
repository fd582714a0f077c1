import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poakit.core import LabelSequence, ScoreSeries, Segment, SegmentSet, ValidationError
from poakit.detect import Detection, best_f1_threshold, default_grid, split_precursor_prediction
from poakit.metrics import (
    MetricParams,
    auc_trapezoid,
    early_prf,
    early_reward,
    merge_precursors_into_predictions,
    pa_k_suite,
    point_adjust,
    pointwise_prf,
    ptapr_f1,
    ptapr_report,
    ptapr_theta_sweep,
    sigmoid_position_weight,
    tapr,
    weighted_component_score,
)
import poakit.metrics as mx
import reference_kernels as ref
from conftest import segment_set
from reference_metrics import (
    ref_ambiguous_score, ref_overlap, ref_pa_k, ref_ptapr, ref_reward, ref_structures, ref_tapr,
)

THIRDS = MetricParams(theta=0.5, delta=4, epsilon=2, k=0.001)


def golden_fixture() -> SegmentSet:
    """Two anomalies; overlap credits 3 and ~5.88, coverages 0.6 and capped 1.

    First anomaly: a 2-point hit plus one precursor point reaching into the
    segment. Second anomaly: fully covered, with a detached one-point alarm
    in its ambiguous window at offset 1 (weight ~0.88).
    """
    return segment_set([(10, 5), (20, 5)], [(11, 2), (20, 5), (26, 1)], [8, -1, -1],
                       delta=4, series_len=40)


class TestSigmoidWeights:
    def test_first_position_near_one(self):
        for delta in (2, 5, 24):
            assert sigmoid_position_weight(0, delta) == pytest.approx(
                1.0 / (1.0 + math.exp(-6.0)), abs=1e-12
            )

    def test_last_position_near_zero(self):
        for delta in (2, 5, 24):
            assert sigmoid_position_weight(delta - 1, delta) == pytest.approx(
                1.0 / (1.0 + math.exp(6.0)), abs=1e-12
            )

    def test_midpoint_of_odd_window_is_half(self):
        for delta in (3, 5, 11):
            assert sigmoid_position_weight((delta - 1) // 2, delta) == 0.5

    def test_degenerate_delta_maps_to_near_end(self):
        for delta in (0, 1):
            assert sigmoid_position_weight(0, delta) == pytest.approx(
                1.0 / (1.0 + math.exp(-6.0)), abs=1e-12
            )


class TestAmbiguousCredit:
    """The sigmoid credit a prediction earns inside an anomaly's ambiguous window."""

    @pytest.mark.parametrize("delta,prediction", [(4, (20, 3)), (0, (10, 3))],
                             ids=["outside-the-window", "no-window"])
    def test_no_shared_point_earns_nothing(self, delta, prediction):
        # anomaly 6..9: its window is 10..13 at delta 4 and empty at delta 0
        seg = segment_set([(6, 4)], [prediction], delta=delta, series_len=40)
        (coverage, _), (p_coverage, _) = mx._diagnostics(seg, MetricParams(delta=delta))
        assert coverage.tolist() == p_coverage.tolist() == [0.0]

    def test_single_offset_one(self):
        got = mx._window_credit(np.array([1]), np.array([1]), 4)[0]
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)

    def test_sum_over_window(self):
        # prediction covering the whole delta=3 window: offsets 0, 1, 2
        expected = sum(1.0 / (1.0 + math.exp(-6.0 + 6.0 * j)) for j in range(3))
        got = mx._window_credit(np.array([0]), np.array([2]), 3)[0]
        assert got == pytest.approx(expected, abs=1e-12)


class TestWindowCredit:
    """Ambiguous credit adds a window's weights left to right from its first
    offset, so every Python gives the same floats; builtin ``sum()`` over
    floats compensates from Python 3.12 on."""

    @pytest.mark.parametrize("delta", [1, 2, 5, 10, 24, 50, 100, 200, 500])
    def test_adds_left_to_right(self, delta):
        table = [sigmoid_position_weight(i, delta) for i in range(delta)]
        windows, expected = [], []
        for first in range(delta):
            acc = 0.0
            for last in range(first, delta):
                acc += table[last]
                windows.append((first, last))
                expected.append(acc)
        order = np.random.default_rng(delta).permutation(len(windows))
        first, last = np.array(windows)[order].T
        got = mx._window_credit(first, last, delta)
        assert got.tobytes() == np.array(expected)[order].tobytes()

    @pytest.mark.parametrize("delta", [1, 2, 5, 24])
    def test_diagnostics_entry_is_the_window_credit(self, delta):
        # one-point anomalies, each with one prediction inside its own
        # ambiguous window and nowhere else: the anomaly's coverage is that
        # pair's entry of the credit matrix, the oracle's offset-order sum
        windows = [(f, l) for f in range(delta) for l in range(f, delta)]
        gap = 2 * delta + 2
        anomalies = [(gap * i, 1) for i in range(len(windows))]
        predictions = [(gap * i + 1 + f, l - f + 1) for i, (f, l) in enumerate(windows)]
        seg = segment_set(anomalies, predictions, delta=delta, series_len=gap * len(windows))
        (coverage, _), _ = mx._diagnostics(seg, MetricParams(delta=delta))
        singles = [ref_ambiguous_score(set(range(gap * i + 1, gap * i + 1 + delta)),
                                       set(range(gap * i + 1 + f, gap * i + 2 + l)), delta)
                   for i, (f, l) in enumerate(windows)]
        assert coverage.tobytes() == np.array(singles).tobytes()
        first, last = np.array(windows, dtype=np.int64).reshape(-1, 2).T
        assert coverage.tobytes() == mx._window_credit(first, last, delta).tobytes()
        assert all(score > 0.0 for score in singles)

    def test_reward_takes_math_exp_bits(self):
        # at these leads np.exp's last bit differs from math.exp's (numpy 2.4,
        # x86-64, epsilon 7, k 0.001); both reward paths give math.exp's
        params = MetricParams()
        leads = [72, 74, 123, 131, 133]
        want = [math.exp(-params.k * (lead - params.epsilon) ** 2).hex() for lead in leads]
        onsets = [200 * (i + 1) for i in range(len(leads))]
        assert [early_reward(Segment(onset, 3), Segment(onset - lead, lead),
                             params.epsilon, params.k).hex()
                for onset, lead in zip(onsets, leads)] == want
        seg = segment_set([(onset, 3) for onset in onsets], [(onset, 3) for onset in onsets],
                          [onset - lead for onset, lead in zip(onsets, leads)],
                          delta=params.delta, series_len=onsets[-1] + 200)
        (_, anomaly_reward), (_, prediction_reward) = mx._diagnostics(seg, params)
        assert [r.hex() for r in anomaly_reward] == want
        assert [r.hex() for r in prediction_reward] == want

    def test_cost_follows_the_series_not_delta(self):
        # 100 rows at delta 10**6: the credit builds only the weights its
        # windows read, where a cached table of every offset up to delta took
        # 38.6 MiB and 5 s
        labels, flags = np.zeros(100, dtype=int), np.zeros(100, dtype=int)
        labels[10:30] = labels[60:70] = 1
        flags[5:41] = flags[55:] = 1
        params = MetricParams(delta=10**6)
        seg = split_precursor_prediction(_detection(flags), labels, params.delta)
        tracemalloc.start()
        try:
            report = ptapr_report(seg, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        want = ref_ptapr(labels.tolist(), flags.tolist(), params.theta, params.alpha,
                         params.beta, params.gamma, params.delta, params.epsilon, params.k)
        assert (report.ptar, report.ptap, report.f1) == pytest.approx(want, abs=1e-12)


class TestOverlapCredit:
    """Each anomaly's overlap credit, its coverage times its length."""

    def test_disjoint_everything(self):
        seg = segment_set([(0, 3)], [(10, 2)], delta=2, series_len=20)
        (coverage, _), (p_coverage, _) = mx._diagnostics(seg, MetricParams(delta=2))
        assert coverage.tolist() == p_coverage.tolist() == [0.0]

    def test_golden_fixture_credits(self):
        # a 2-point hit plus one precursor point: 3; a full hit plus one
        # detached alarm at ambiguous offset 1: 5 + ~0.88
        (coverage, _), _ = mx._diagnostics(golden_fixture(), THIRDS)
        assert coverage[0] * 5 == pytest.approx(3.0, abs=1e-12)
        assert coverage[1] * 5 == pytest.approx(5.88, abs=0.005)


class TestEarlyReward:
    def test_no_precursor(self):
        assert early_reward(Segment(10, 4), None, epsilon=7, k=0.001) == 0.0

    def test_precursor_not_before_onset(self):
        assert early_reward(Segment(10, 4), Segment(10, 2), epsilon=7, k=0.001) == 0.0

    def test_peak_at_epsilon(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            epsilon = int(rng.integers(1, 30))
            k = float(rng.uniform(1e-4, 1.0))
            onset = 50
            p_prime = Segment(onset - epsilon, epsilon)
            assert early_reward(Segment(onset, 3), p_prime, epsilon, k) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_lead_far_from_epsilon_does_not_wrap(self):
        # (20 - 3.1e9)**2 passes the int64 range: squared in int64 it wrapped
        # negative, and the reward came out as 6882.5
        epsilon, k = 3_100_000_000, 1e-18
        want = math.exp(-k * (20 - epsilon) ** 2)
        assert mx._lead_reward(np.array([20]), epsilon, k).tolist() == [want]
        assert early_reward(Segment(40, 3), Segment(20, 20), epsilon, k) == want
        assert 0.0 < want < 1.0

    def test_lead_17_with_defaults(self):
        # lead deviates from the optimum by 10: exp(-0.001 * 100)
        got = early_reward(Segment(20, 3), Segment(3, 2), epsilon=7, k=0.001)
        assert got == pytest.approx(math.exp(-0.1), abs=1e-9)


class TestPtar:
    def test_golden_fixture_components(self):
        seg = golden_fixture()
        res = ptapr_report(seg, THIRDS).recall
        assert res.detection == 1.0
        assert res.portion == pytest.approx(0.8, abs=1e-6)
        # precursor starts 2 steps before onset; epsilon=2 makes the reward 1
        assert res.early == pytest.approx(0.5, abs=1e-12)
        assert res.score == pytest.approx((1.0 + 0.8 + 0.5) / 3.0, abs=1e-9)

    def test_perfect_detection_no_precursor(self):
        seg = segment_set([(5, 4)], [(5, 4)], delta=4, series_len=30)
        res = ptapr_report(seg, MetricParams(theta=0.5, delta=4)).recall
        assert res.score == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_empty_predictions_scores_zero(self):
        seg = segment_set([(5, 4)], [], delta=4, series_len=30)
        for theta in (0.0, 0.3, 1.0):
            res = ptapr_report(seg, MetricParams(theta=theta, delta=4)).recall
            assert res.score == 0.0

    def test_no_anomalies_is_an_error(self):
        seg = segment_set([], [(1, 2)], delta=4, series_len=30)
        with pytest.raises(ValidationError, match="no ground-truth"):
            ptapr_report(seg, THIRDS).recall


class TestPtap:
    def test_golden_precision_aggregation(self):
        # golden component inputs: both sides detected and fully covered
        params = MetricParams()
        value = weighted_component_score(1.0, 1.0, 0.145, params)
        assert value == pytest.approx(0.715, abs=0.005)

    def test_predictions_fully_inside_anomalies(self):
        seg = segment_set([(10, 6), (30, 4)], [(11, 2), (30, 4)], delta=4, series_len=50)
        params = MetricParams(theta=0.5, delta=4)
        res = ptapr_report(seg, params).precision
        assert res.score == pytest.approx(params.alpha + params.beta, abs=1e-12)

    def test_zero_overlap_prediction(self):
        seg = segment_set([(30, 4)], [(2, 3)], delta=4, series_len=50)
        res = ptapr_report(seg, MetricParams(theta=0.0, delta=4)).precision
        assert res.detection == 0.0
        assert res.portion == 0.0

    def test_empty_predictions_marker(self):
        seg = segment_set([(5, 4)], [], delta=4, series_len=30)
        res = ptapr_report(seg, THIRDS).precision
        assert res.score == 0.0
        assert res.undefined


class TestPtaprF1:
    def test_idempotent_on_equal_inputs(self):
        for x in (0.0, 0.25, 1.0):
            assert ptapr_f1(x, x) == pytest.approx(x, abs=1e-15)

    def test_golden_pair(self):
        assert ptapr_f1(0.65, 0.72) == pytest.approx(0.6832, abs=0.005)

    def test_zero_one(self):
        assert ptapr_f1(0.0, 1.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ptapr_f1(1.5, 0.5)


class TestGoldenAggregation:
    def test_golden_component_inputs(self):
        params = MetricParams()
        recall = weighted_component_score(1.0, 0.8, (0.29 + 0.0) / 2.0, params)
        precision = weighted_component_score(1.0, 1.0, (0.29 + 0.0) / 2.0, params)
        assert recall == pytest.approx(0.6483, abs=0.005)
        assert precision == pytest.approx(0.715, abs=0.005)
        assert ptapr_f1(recall, precision) == pytest.approx(0.6832, abs=0.005)


class TestThetaSweep:
    def test_constant_curve_auc(self):
        # full coverage everywhere: F1 does not depend on theta
        seg = segment_set([(5, 4)], [(5, 4)], delta=4, series_len=30)
        sweep = ptapr_theta_sweep(ptapr_report(seg, MetricParams(delta=4)), np.linspace(0, 1, 11))
        assert np.allclose(sweep.f1, sweep.f1[0])
        assert sweep.auc == pytest.approx(sweep.f1[0], abs=1e-12)
        assert sweep.f1_at_0 == sweep.f1[0]
        assert sweep.f1_at_1 == sweep.f1[-1]

    def test_trapezoid_helper(self):
        assert auc_trapezoid([0.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5, abs=1e-15)
        assert auc_trapezoid([0.0, 0.5, 1.0], [1.0, 1.0, 0.0]) == pytest.approx(0.75)

    def test_endpoints_added(self):
        seg = golden_fixture()
        sweep = ptapr_theta_sweep(ptapr_report(seg, THIRDS), [0.5])
        assert sweep.thetas[0] == 0.0 and sweep.thetas[-1] == 1.0

    @pytest.mark.parametrize("score", [ptapr_report, tapr])
    @pytest.mark.parametrize("thetas", [[0.5, math.nan], [math.nan], [math.nan, 0.0, 1.0]])
    def test_nan_theta_is_refused(self, score, thetas):
        # NaN fails every < and > comparison, so a range check made of them lets it through
        with pytest.raises(ValidationError, match=r"thetas must lie within \[0, 1\]"):
            ptapr_theta_sweep(score(golden_fixture(), THIRDS), thetas)

    def test_refinement_oracle(self):
        seg = golden_fixture()
        coarse = ptapr_theta_sweep(ptapr_report(seg, THIRDS), np.linspace(0, 1, 101))
        fine = ptapr_theta_sweep(ptapr_report(seg, THIRDS), np.linspace(0, 1, 10001))
        assert coarse.auc == pytest.approx(fine.auc, abs=1e-3)

    def test_detection_component_monotone_in_theta(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            labels = rng.integers(0, 2, size=30)
            flags = rng.integers(0, 2, size=30)
            if not labels.any():
                continue
            det = Detection(flags, 0.5, np.where(flags == 1, 1.0, np.nan))
            seg = split_precursor_prediction(det, labels, delta=3)
            prev_d = None
            for theta in np.linspace(0, 1, 21):
                params = MetricParams(theta=float(theta), delta=3)
                d = ptapr_report(seg, params).recall.detection
                if prev_d is not None:
                    assert d <= prev_d + 1e-12
                prev_d = d


class TestTapr:
    def test_perfect_pointwise_match(self):
        seg = segment_set([(5, 4), (20, 3)], [(5, 4), (20, 3)], delta=4, series_len=40)
        res = tapr(seg, MetricParams(theta=1.0, delta=4))
        assert res.ptar == 1.0
        assert res.ptap == 1.0
        assert res.f1 == 1.0

    def test_hand_oracle_on_golden_fixture(self):
        seg = golden_fixture()
        res = tapr(seg, THIRDS)
        # merged runs: {8..12}, {20..24}, {26}
        s_weight = 1.0 / (1.0 + math.exp(-2.0))
        cov_a1 = 3.0 / 5.0
        cov_a2 = (5.0 + s_weight) / 5.0
        tar_d = 1.0  # both above theta=0.5
        tar_p = (cov_a1 + min(1.0, cov_a2)) / 2.0
        exp_tar = 0.5 * tar_d + 0.5 * tar_p
        cov_p = [3.0 / 5.0, 5.0 / 5.0, s_weight / 1.0]
        tap_d = 1.0
        tap_p = sum(min(1.0, c) for c in cov_p) / 3.0
        exp_tap = 0.5 * tap_d + 0.5 * tap_p
        assert res.ptar == pytest.approx(exp_tar, abs=1e-12)
        assert res.ptap == pytest.approx(exp_tap, abs=1e-12)
        assert res.f1 == pytest.approx(
            2 * exp_tar * exp_tap / (exp_tar + exp_tap), abs=1e-12
        )

    def test_empty_predictions(self):
        seg = segment_set([(5, 4)], [], delta=4, series_len=30)
        res = tapr(seg, THIRDS)
        assert res.f1 == 0.0

    def test_merge_restores_runs(self):
        seg = golden_fixture()
        merged = merge_precursors_into_predictions(seg)
        assert merged.predictions == (Segment(8, 5), Segment(20, 5), Segment(26, 1))

    def test_independent_of_reward_params(self):
        seg = golden_fixture()
        a = tapr(seg, MetricParams(theta=0.5, delta=4, epsilon=3, k=0.5))
        b = tapr(seg, MetricParams(theta=0.5, delta=4, epsilon=9, k=0.0001))
        assert replace(a, params=b.params) == b


class TestTaprThetaSweep:
    """The sweep scores every theta from one coverage computation."""

    @staticmethod
    def per_theta(seg, params, thetas):
        return [tapr(seg, MetricParams(theta=float(t), delta=params.delta,
                                       tapr_alpha=params.tapr_alpha)) for t in thetas]

    def test_matches_per_theta_tapr(self):
        seg, thetas = golden_fixture(), np.linspace(0.0, 1.0, 101)
        sweep = ptapr_theta_sweep(tapr(seg, THIRDS), thetas)
        singles = self.per_theta(seg, THIRDS, thetas)
        assert np.array_equal(sweep.thetas, thetas)
        assert sweep.f1.tolist() == [r.f1 for r in singles]
        assert sweep.ptar.tolist() == [r.ptar for r in singles]
        assert sweep.ptap.tolist() == [r.ptap for r in singles]
        assert sweep.auc == auc_trapezoid(thetas, sweep.f1)
        assert (sweep.f1_at_0, sweep.f1_at_1) == (singles[0].f1, singles[-1].f1)

    def test_grid_normalised_like_ptapr_sweep(self):
        seg = golden_fixture()
        sweep = ptapr_theta_sweep(tapr(seg, THIRDS), [0.7, 0.3, 0.3])
        assert sweep.thetas.tolist() == [0.0, 0.3, 0.7, 1.0]
        ptapr_sweep = ptapr_theta_sweep(ptapr_report(seg, THIRDS), [0.7, 0.3])
        assert np.array_equal(sweep.thetas, ptapr_sweep.thetas)
        with pytest.raises(ValidationError):
            ptapr_theta_sweep(tapr(seg, THIRDS), [])

    def test_no_predictions(self):
        seg = segment_set([(5, 4)], [], delta=4, series_len=30)
        sweep = ptapr_theta_sweep(tapr(seg, THIRDS), [0.0, 1.0])
        assert sweep.f1.tolist() == [0.0, 0.0]
        assert sweep.ptap.tolist() == [0.0, 0.0]

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(39)
        thetas = np.linspace(0.0, 1.0, 11)
        checked = 0
        while checked < 30:
            T = int(rng.integers(5, 31))
            labels = (rng.random(T) < 0.25).astype(int)
            flags = (rng.random(T) < 0.3).astype(int)
            if not labels.any():
                continue
            delta = int(rng.integers(0, 6))
            params = MetricParams(delta=delta)
            det = Detection(flags, 0.5, np.where(flags == 1, 1.0, np.nan))
            seg = split_precursor_prediction(det, labels, delta)
            sweep = ptapr_theta_sweep(tapr(seg, params), thetas)
            singles = self.per_theta(seg, params, thetas)
            assert sweep.f1.tolist() == [r.f1 for r in singles]
            for theta, f1 in zip(thetas, sweep.f1):
                _, _, ref_f1 = ref_tapr(labels.tolist(), flags.tolist(), float(theta), 0.5, delta)
                assert f1 == pytest.approx(ref_f1, abs=1e-9)
            checked += 1


class TestPointAdjust:
    def test_k0_single_point_fills_segment(self):
        labels = np.zeros(20, dtype=int)
        labels[5:15] = 1
        flags = np.zeros(20, dtype=int)
        flags[9] = 1
        adjusted = point_adjust(flags, labels, 0.0)
        assert np.all(adjusted[5:15] == 1)
        assert adjusted.sum() == 10

    def test_k100_requires_full_coverage(self):
        labels = np.zeros(12, dtype=int)
        labels[1:11] = 1
        flags = labels.copy()
        flags[4] = 0  # 9 of 10 points
        assert np.array_equal(point_adjust(flags, labels, 100.0), flags)

    def test_k50_boundary_inclusive(self):
        labels = np.zeros(10, dtype=int)
        labels[:10] = 1
        flags = np.zeros(10, dtype=int)
        flags[:5] = 1  # exactly 50%
        assert np.all(point_adjust(flags, labels, 50.0) == 1)

    def test_idempotent_and_recall_never_drops(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            labels = rng.integers(0, 2, size=40)
            flags = rng.integers(0, 2, size=40)
            for k in (0.0, 25.0, 50.0, 100.0):
                once = point_adjust(flags, labels, k)
                twice = point_adjust(once, labels, k)
                assert np.array_equal(once, twice)
                _, r_raw, _ = pointwise_prf(flags, labels)
                _, r_adj, _ = pointwise_prf(once, labels)
                assert r_adj >= r_raw - 1e-12

    def test_non_anomalous_flags_untouched(self):
        labels = np.zeros(10, dtype=int)
        labels[2:4] = 1
        flags = np.ones(10, dtype=int)
        adjusted = point_adjust(flags, labels, 0.0)
        assert np.array_equal(adjusted, flags)


class TestPaKSuite:
    def test_k100_equals_pointwise(self):
        rng = np.random.default_rng(34)
        labels = rng.integers(0, 2, size=60)
        flags = rng.integers(0, 2, size=60)
        res = pa_k_suite(flags, labels)
        assert res.f1[-1] == pytest.approx(res.f1_pointwise, abs=1e-12)

    def test_f1_pa_is_k0(self):
        labels = np.zeros(20, dtype=int)
        labels[5:15] = 1
        flags = np.zeros(20, dtype=int)
        flags[9] = 1
        res = pa_k_suite(flags, labels)
        adjusted = point_adjust(flags, labels, 0.0)
        assert res.f1_pa == pytest.approx(pointwise_prf(adjusted, labels)[2])
        assert res.f1_pa > res.f1_pointwise

    def test_nan_k_is_refused_with_the_grid(self):
        with pytest.raises(ValidationError, match=r"K values must lie within \[0, 100\]"):
            pa_k_suite([0, 1, 1], [0, 1, 0], k_grid=[50.0, math.nan])

    def test_matches_reference(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            labels = rng.integers(0, 2, size=30)
            flags = rng.integers(0, 2, size=30)
            got = pa_k_suite(flags, labels, k_grid=[0, 25, 50, 75, 100])
            f1_pa, f1_pw, auc = ref_pa_k(
                flags.tolist(), labels.tolist(), [0, 25, 50, 75, 100]
            )
            assert got.f1_pa == pytest.approx(f1_pa, abs=1e-9)
            assert got.f1_pointwise == pytest.approx(f1_pw, abs=1e-9)
            assert got.auc == pytest.approx(auc, abs=1e-9)


class TestPointwisePrf:
    def test_basic(self):
        p, r, f1 = pointwise_prf([1, 1, 0, 0], [1, 0, 1, 0])
        assert p == 0.5 and r == 0.5 and f1 == 0.5

    def test_empty_cases(self):
        assert pointwise_prf([0, 0], [0, 0]) == (0.0, 0.0, 0.0)
        assert pointwise_prf([0, 0], [1, 1]) == (0.0, 0.0, 0.0)


class TestInvariants:
    def shift_fixture(self, offset):
        return segment_set(
            [(10 + offset, 5), (20 + offset, 5)],
            [(11 + offset, 2), (20 + offset, 5), (26 + offset, 1)],
            [8 + offset, -1, -1],
            delta=4, series_len=60 + offset,
        )

    def test_shift_invariance(self):
        base = ptapr_report(self.shift_fixture(0), THIRDS)
        shifted = ptapr_report(self.shift_fixture(13), THIRDS)
        assert shifted.ptar == pytest.approx(base.ptar, abs=1e-12)
        assert shifted.ptap == pytest.approx(base.ptap, abs=1e-12)
        assert shifted.f1 == pytest.approx(base.f1, abs=1e-12)

    def test_gamma_zero_independent_of_reward_params(self):
        seg = golden_fixture()
        p1 = MetricParams(theta=0.5, alpha=0.5, beta=0.5, gamma=0.0, delta=4, epsilon=2, k=0.5)
        p2 = MetricParams(theta=0.5, alpha=0.5, beta=0.5, gamma=0.0, delta=4, epsilon=9, k=1e-4)
        r1, r2 = ptapr_report(seg, p1), ptapr_report(seg, p2)
        assert r1.recall.score == pytest.approx(r2.recall.score, abs=1e-15)
        assert r1.precision.score == pytest.approx(r2.precision.score, abs=1e-15)

    def test_all_scores_within_unit_interval(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            labels = rng.integers(0, 2, size=30)
            flags = rng.integers(0, 2, size=30)
            if not labels.any():
                continue
            det = Detection(flags, 0.5, np.where(flags == 1, 1.0, np.nan))
            seg = split_precursor_prediction(det, labels, delta=3)
            params = MetricParams(theta=0.37, delta=3)
            report = ptapr_report(seg, params)
            for value in (
                report.ptar,
                report.ptap,
                report.f1,
                report.recall.detection,
                report.recall.portion,
                report.recall.early,
                report.precision.detection,
                report.precision.portion,
                report.precision.early,
            ):
                assert -1e-12 <= value <= 1.0 + 1e-12

    def test_early_prf_zero_when_no_precursors(self):
        seg = segment_set([(5, 4)], [(5, 4)], delta=4, series_len=30)
        assert early_prf(ptapr_report(seg, THIRDS)) == (0.0, 0.0, 0.0)


class TestOracleEquivalence:
    def test_random_micro_fixtures(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 60:
            T = int(rng.integers(5, 31))
            labels = (rng.random(T) < 0.25).astype(int)
            flags = (rng.random(T) < 0.3).astype(int)
            if not labels.any():
                continue
            delta = int(rng.integers(0, 6))
            theta = float(rng.uniform(0.05, 0.95))
            epsilon = int(rng.integers(1, 9))
            k = float(rng.uniform(0.0005, 0.3))
            params = MetricParams(theta=theta, delta=delta, epsilon=epsilon, k=k)
            det = Detection(flags, 0.5, np.where(flags == 1, 1.0, np.nan))
            seg = split_precursor_prediction(det, labels, delta)
            report = ptapr_report(seg, params)
            r_ptar, r_ptap, r_f1 = ref_ptapr(
                labels.tolist(), flags.tolist(), theta, 1 / 3, 1 / 3, 1 / 3,
                delta, epsilon, k,
            )
            assert report.ptar == pytest.approx(r_ptar, abs=1e-9)
            assert report.ptap == pytest.approx(r_ptap, abs=1e-9)
            assert report.f1 == pytest.approx(r_f1, abs=1e-9)

            got = tapr(seg, params)
            r_tar, r_tap, rt_f1 = ref_tapr(
                labels.tolist(), flags.tolist(), theta, 0.5, delta
            )
            assert got.ptar == pytest.approx(r_tar, abs=1e-9)
            assert got.ptap == pytest.approx(r_tap, abs=1e-9)
            assert got.f1 == pytest.approx(rt_f1, abs=1e-9)
            checked += 1


def _detection(flags) -> Detection:
    flags = np.asarray(flags, dtype=np.int8)
    return Detection(flags, 0.5, np.where(flags == 1, 1.0, np.nan))


def _bits(text: str) -> list[int]:
    return [int(c) for c in text.replace(" ", "")]


# (labels, flags, delta); one space every five points, for reading only
ORACLE_EDGES = {
    "delta-0": ("00111 00000 01110 00000", "01111 11000 00111 11100", 0),
    "delta-1": ("00111 00000 01110 00000", "01111 11000 00111 11100", 1),
    "window-cut-by-next-anomaly": ("01110 01110 00000", "00001 10001 11110", 6),
    "window-cut-by-series-end": ("00000 00000 00011 10", "00000 01100 00011 11", 5),
    "run-spans-two-onsets": ("00001 11000 11100 00000", "00111 11111 11110 00000", 4),
    "run-starts-at-onset": ("00001 11100 00000", "00001 11111 00000", 4),
    "no-predictions": ("00111 00000 01110", "00000 00000 00000", 3),
    "anomalies-at-both-ends": ("11100 00000 00000 00001", "11111 00000 01100 00111", 4),
}


class TestOracleEdges:
    """Edges of the array credit the random fixtures rarely reach, against the oracle."""

    @pytest.mark.parametrize("case", sorted(ORACLE_EDGES))
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_matches_oracle(self, case, theta):
        text_labels, text_flags, delta = ORACLE_EDGES[case]
        labels, flags = _bits(text_labels), _bits(text_flags)
        params = MetricParams(theta=theta, delta=delta, epsilon=2, k=0.1)
        seg = split_precursor_prediction(_detection(flags), labels, delta)
        report = ptapr_report(seg, params)
        expected = ref_ptapr(labels, flags, theta, 1 / 3, 1 / 3, 1 / 3, delta, 2, 0.1)
        assert (report.ptar, report.ptap, report.f1) == pytest.approx(expected, abs=1e-9)
        got = tapr(seg, params)
        expected = ref_tapr(labels, flags, theta, 0.5, delta)
        assert (got.ptar, got.ptap, got.f1) == pytest.approx(expected, abs=1e-9)


def _seeded_case(seed, T=600):
    """Eight anomalies 3..29 long and noisy scores that rise around them."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(T, dtype=np.int8)
    for start in np.sort(rng.choice(np.arange(10, T - 40, 45), 8, replace=False)):
        labels[start : start + int(rng.integers(3, 30))] = 1
    scores = np.convolve(labels, np.ones(16) / 16, mode="same") + rng.normal(0, 0.25, T)
    return labels, scores


def _report_hexes(report) -> list[str]:
    values = [report.ptar, report.ptap, report.f1, *report.anomaly_coverage,
              *report.anomaly_reward, *report.prediction_coverage, *report.prediction_reward]
    return [float(v).hex() for v in values]


class TestBitExact:
    """Exact bits, recorded from the per-pair implementation the array credit
    replaced. A one-ulp drift in F1 can move a ``>=`` tie in the threshold
    search, which ``approx`` cannot see."""

    def test_golden_fixture_bits(self):
        assert _report_hexes(ptapr_report(golden_fixture(), THIRDS)) == [
            "0x1.8888888888888p-1", "0x1.8770ded9d9bc0p-1", "0x1.87fc81cf94d83p-1",
            "0x1.3333333333333p-1", "0x1.2d18c890dd8fap+0",
            "0x1.0000000000000p+0", "0x0.0p+0",
            "0x1.8000000000000p+0", "0x1.0000000000000p+0", "0x1.c2f7d5a8a79c9p-1",
            "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
        ]

    @pytest.mark.parametrize(
        "params,f1_hex,digest",
        [
            (MetricParams(delta=24), "0x1.95ab52baf578cp-2",
             "4c770667fc4c496ae38d8a878a11bb60e54e4ea3c1cd6183f8910bb9e00043f6"),
            (MetricParams(theta=0.5, delta=24, epsilon=3, k=0.05), "0x1.60955f663b02ap-2",
             "c1b900ad93d97b00596b6b52b7464e3d285e0bf0779780de4a2ea4e308cb1421"),
        ],
        ids=["defaults", "theta-0.5"],
    )
    def test_seeded_report_bits(self, params, f1_hex, digest):
        labels, scores = _seeded_case(51)
        flags = (scores >= np.quantile(scores, 0.6)).astype(np.int8)
        seg = split_precursor_prediction(_detection(flags), labels, 24)
        assert (len(seg.anomalies), len(seg.predictions)) == (8, 88)
        hexes = _report_hexes(ptapr_report(seg, params))
        assert hexes[2] == f1_hex
        assert hashlib.sha256(" ".join(hexes).encode()).hexdigest() == digest

    def test_matches_per_pair_loop(self):
        """The array credit against the oracle's per-pair loop, bit for bit."""
        rng = np.random.default_rng(52)
        for _ in range(200):
            T = int(rng.integers(5, 80))
            labels = (rng.random(T) < rng.uniform(0.05, 0.5)).astype(int)
            flags = (rng.random(T) < rng.uniform(0.05, 0.8)).astype(int)
            if not labels.any():
                continue
            delta = int(rng.integers(0, 12))
            params = MetricParams(delta=delta, epsilon=int(rng.integers(1, 9)),
                                  k=float(rng.uniform(1e-4, 0.5)))
            seg = split_precursor_prediction(_detection(flags), labels, delta)
            anomalies, ambiguous, predictions, precursors = ref_structures(labels, flags, delta)
            n_a, n_p = len(anomalies), len(predictions)
            overlap, reward = np.zeros((n_a, n_p)), np.zeros((n_a, n_p))
            for ai, (a, a_prime) in enumerate(zip(anomalies, ambiguous)):
                for pi, (p, p_prime) in enumerate(zip(predictions, precursors)):
                    overlap[ai, pi] = ref_overlap(a, p, p_prime, a_prime, delta)
                    reward[ai, pi] = ref_reward(a, p_prime, params.epsilon, params.k)
            reward = np.where(overlap > 0.0, reward, 0.0)
            report = ptapr_report(seg, params)
            a_len = np.array([len(a) for a in anomalies], dtype=float)
            assert report.anomaly_coverage == tuple(overlap.sum(axis=1) / a_len)
            assert report.anomaly_reward == tuple(reward.max(axis=1, initial=0.0))
            if n_p:
                p_len = np.array([len(p) for p in predictions], dtype=float)
                assert report.prediction_coverage == tuple(overlap.sum(axis=0) / p_len)
                assert report.prediction_reward == tuple(reward.max(axis=0, initial=0.0))

    def test_threshold_search_bits(self):
        labels, scores = _seeded_case(51)
        series = ScoreSeries(scores, np.ones_like(scores))
        grid = default_grid(series, 64)
        params = MetricParams(delta=24)

        def evaluate(det):
            return ptapr_report(split_precursor_prediction(det, labels, 24), params).f1

        result = best_f1_threshold(series, LabelSequence(labels), evaluate, grid)
        assert len(grid) == 64
        assert (result.threshold.hex(), result.f1.hex()) == (
            "0x1.657de7a8a407ap-1", "0x1.21b913ad613b4p-1")


def _component_bits(score):
    return [float(v).hex() for v in (score.score, score.detection, score.portion, score.early)
            ] + [score.undefined]


def _sides(report):
    """A report's (coverage, reward) per side: anomalies, then predictions."""
    return ((np.array(report.anomaly_coverage), np.array(report.anomaly_reward)),
            (np.array(report.prediction_coverage), np.array(report.prediction_reward)))


@st.composite
def _scored_segments(draw):
    """A segment set, its metric params and a theta grid that holds some of
    its exact coverage values (repeats included), 0 and 1."""
    def runs(min_size):
        out, at = [], 0
        for gap, length in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 8)),
                                         min_size=min_size, max_size=8)):
            out.append((at + gap, length))
            at += gap + length
        return out, at

    anomalies, a_end = runs(1)
    predictions, p_end = runs(0)
    ends = [-1] + [start + length - 1 for start, length in predictions]
    # a precursor starts after the previous prediction, as a flagged run's does
    precursors = [draw(st.sampled_from([-1, *range(end + 1, start)]))
                  for end, (start, _) in zip(ends, predictions)]
    seg = segment_set(anomalies, predictions, precursors, delta=draw(st.integers(0, 6)),
                      series_len=max(a_end, p_end) + draw(st.integers(0, 8)))
    alpha, beta, gamma = draw(st.sampled_from(
        [(1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.5, 0.3, 0.2), (0.2, 0.2, 0.6)]))
    params = MetricParams(alpha=alpha, beta=beta, gamma=gamma, delta=seg.delta,
                          epsilon=draw(st.integers(1, 8)), k=draw(st.floats(1e-4, 0.5)),
                          tapr_alpha=draw(st.floats(0.0, 1.0)))
    exact = [0.0, 1.0]
    for report in (ptapr_report(seg, params),
                   ptapr_report(merge_precursors_into_predictions(seg), params)):
        exact += [c for c in report.anomaly_coverage + report.prediction_coverage if c <= 1.0]
    theta = st.one_of(st.sampled_from(exact), st.floats(0.0, 1.0))
    thetas = draw(st.lists(theta, min_size=1, max_size=12))
    return seg, replace(params, theta=draw(st.sampled_from(thetas))), thetas


class TestThetaGridMatchesLoop:
    """The whole-grid side scoring against the theta-at-a-time loop it
    replaced, bit for bit, for PTaPR and TaPR, curve and single theta."""

    @settings(max_examples=300, deadline=None)
    @given(_scored_segments())
    @example((segment_set([(5, 4)], [], delta=4, series_len=30),  # no predictions
              THIRDS, [0.0, 0.5, 1.0]))
    @example((segment_set([(5, 4), (20, 3)], [(0, 2), (12, 3)], [-1, 10], delta=2,
                          series_len=30),  # no prediction earns credit
              MetricParams(theta=0.0, delta=2), [0.0, 0.0, 1.0]))
    @example((golden_fixture(), THIRDS, [0.6, 0.6, 1.0, 0.0]))  # exact coverages
    def test_matches_theta_loop(self, case):
        seg, params, thetas = case
        report = ptapr_report(seg, params)
        self.assert_matches(params, thetas, report, ptapr_theta_sweep(report, thetas))
        weights = replace(params, alpha=params.tapr_alpha, beta=1.0 - params.tapr_alpha,
                          gamma=0.0)
        merged = ptapr_report(merge_precursors_into_predictions(seg), weights)
        got = tapr(seg, params)
        recall, precision = (ref.side_score(*side, params.theta, weights).score
                             for side in _sides(merged))
        assert [got.ptar.hex(), got.ptap.hex(), got.f1.hex()] == [
            recall.hex(), precision.hex(), ref.ptapr_f1(recall, precision).hex()]
        self.assert_matches(weights, thetas, merged, ptapr_theta_sweep(got, thetas))

    @staticmethod
    def assert_matches(params, thetas, report, sweep):
        anomaly, prediction = _sides(report)
        recall = ref.side_score(*anomaly, params.theta, params)
        precision = ref.side_score(*prediction, params.theta, params)
        assert _component_bits(report.recall) == _component_bits(recall)
        assert _component_bits(report.precision) == _component_bits(precision)
        assert report.f1.hex() == ref.ptapr_f1(recall.score, precision.score).hex()
        assert sweep.thetas.tobytes() == np.unique(np.r_[0.0, thetas, 1.0]).tobytes()
        curve = ref.theta_curve(anomaly, prediction, sweep.thetas, params)
        for got, want in zip((sweep.ptar, sweep.ptap, sweep.f1), curve):
            assert got.tobytes() == want.tobytes()
        assert sweep.auc.hex() == auc_trapezoid(sweep.thetas, curve[2]).hex()
        assert (sweep.f1_at_0.hex(), sweep.f1_at_1.hex()) == (
            float(curve[2][0]).hex(), float(curve[2][-1]).hex())

    def test_fine_grid_makes_no_theta_by_segment_array(self):
        # 1,000 one-point predictions around 20 anomalies: a theta x prediction
        # array of flags alone would take 100 MB at 100,001 thetas
        seg = segment_set([(100 * i + 3, 10) for i in range(20)],
                          [(2 * i, 1) for i in range(1000)], delta=24, series_len=2100)
        thetas = np.linspace(0.0, 1.0, 100_001)
        report = ptapr_report(seg, MetricParams())
        tracemalloc.start()
        try:
            sweep = ptapr_theta_sweep(report, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sweep.f1.shape == thetas.shape
        assert peak < 20e6, peak


class TestReportMatchesSides:
    """ptapr_report scores both sides itself; each must equal the theta
    sweep's value at the same theta."""

    @staticmethod
    def assert_report_matches(seg, params):
        report = ptapr_report(seg, params)
        sweep = ptapr_theta_sweep(report, [params.theta])
        at = int(np.searchsorted(sweep.thetas, params.theta))
        assert (report.ptar, report.ptap, report.f1) == (
            sweep.ptar[at], sweep.ptap[at], sweep.f1[at])
        assert report.ptar == report.recall.score
        assert report.ptap == report.precision.score
        assert report.f1 == ptapr_f1(report.recall.score, report.precision.score)

    def test_micro_fixtures(self):
        self.assert_report_matches(golden_fixture(), THIRDS)
        rng = np.random.default_rng(38)
        checked = 0
        while checked < 40:
            T = int(rng.integers(5, 31))
            labels = (rng.random(T) < 0.25).astype(int)
            flags = (rng.random(T) < 0.3).astype(int)
            if not labels.any():
                continue
            delta = int(rng.integers(0, 6))
            params = MetricParams(
                theta=float(rng.uniform(0.0, 1.0)), delta=delta,
                epsilon=int(rng.integers(1, 9)), k=float(rng.uniform(0.0005, 0.3)),
            )
            det = Detection(flags, 0.5, np.where(flags == 1, 1.0, np.nan))
            seg = split_precursor_prediction(det, labels, delta)
            self.assert_report_matches(seg, params)
            checked += 1

    def test_no_predictions(self):
        seg = segment_set([(5, 4)], [], delta=4, series_len=30)
        self.assert_report_matches(seg, THIRDS)
        assert ptapr_report(seg, THIRDS).precision.undefined

    def test_diagnostics_built_once_per_call(self, monkeypatch):
        import poakit.metrics as mx

        calls = []
        real = mx._diagnostics
        monkeypatch.setattr(mx, "_diagnostics", lambda *a: calls.append(a) or real(*a))
        report = ptapr_report(golden_fixture(), THIRDS)
        assert len(calls) == 1
        early_prf(report)
        assert len(calls) == 1
