import re
import tracemalloc
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels

from poakit import uncertainty as unc
from poakit.core import ValidationError
from poakit.forecast import ForecastCube
from poakit.uncertainty import (
    aggregate_variables,
    collate_timeline,
    ensemble_variance,
    horizon_stats,
    normalize,
    score_timeline,
    uncertainty_from_ensembles,
)


def assert_bits_equal(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestEnsembleVariance:
    def test_identical_members_zero(self):
        preds = np.tile(np.arange(6.0).reshape(1, 3, 2), (4, 1, 1))
        assert np.all(ensemble_variance(preds) == 0.0)

    def test_hand_two_pass(self):
        # members predict 1, 2, 3 at one cell: deviations sum to 2, /(M-1) = 1
        preds = np.array([[[1.0]], [[2.0]], [[3.0]]])
        assert ensemble_variance(preds)[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        preds = rng.normal(size=(5, 4, 3))
        got = ensemble_variance(preds)
        for i in range(4):
            for v in range(3):
                cell = preds[:, i, v]
                mean = sum(cell) / 5
                var = sum((x - mean) ** 2 for x in cell) / 4
                assert got[i, v] == pytest.approx(var, abs=1e-12)

    def test_member_permutation_invariant(self):
        rng = np.random.default_rng(12)
        preds = rng.normal(size=(5, 4, 3))
        base = ensemble_variance(preds)
        perm = rng.permutation(5)
        assert np.allclose(ensemble_variance(preds[perm]), base, atol=1e-12)

    def test_constant_shift_invariant(self):
        rng = np.random.default_rng(13)
        preds = rng.normal(size=(4, 3, 2))
        base = ensemble_variance(preds)
        shifted = ensemble_variance(preds + 17.5)
        assert np.allclose(shifted, base, atol=1e-10)

    def test_rejects_missing_member_axis(self):
        with pytest.raises(ValidationError, match=r"got shape \(4, 3\)"):
            ensemble_variance(np.zeros((4, 3)))

    def test_rejects_single_member(self):
        with pytest.raises(ValidationError, match="too small"):
            ensemble_variance(np.zeros((1, 3, 2)))


class TestHorizonStats:
    def test_equal_windows_have_zero_sigma(self):
        values = np.tile(np.arange(6.0).reshape(1, 3, 2), (5, 1, 1))
        mu, sigma = horizon_stats(values)
        assert np.all(sigma == 0.0)
        assert np.allclose(mu, values[0])

    def test_population_divisor(self):
        # two windows with values {0, 2} at a cell: mu=1, sigma=1 (divisor N)
        values = np.array([[[0.0]], [[2.0]]])
        mu, sigma = horizon_stats(values)
        assert mu[0, 0] == pytest.approx(1.0)
        assert sigma[0, 0] == pytest.approx(1.0)

    def test_matches_flat_loop_oracle(self):
        rng = np.random.default_rng(14)
        values = rng.uniform(0, 5, size=(7, 4, 2))
        got_mu, got_sigma = horizon_stats(values)
        for i in range(4):
            for v in range(2):
                cells = [values[w, i, v] for w in range(7)]
                mu = sum(cells) / 7
                sigma = (sum((x - mu) ** 2 for x in cells) / 7) ** 0.5
                assert got_mu[i, v] == pytest.approx(mu, abs=1e-12)
                assert got_sigma[i, v] == pytest.approx(sigma, abs=1e-12)

    def test_rejects_single_window(self):
        with pytest.raises(ValidationError):
            horizon_stats(np.zeros((1, 2, 2)))


class TestNormalize:
    def test_raw_equal_to_mu_gives_zero(self):
        values = np.full((3, 2, 2), 4.0)
        out = normalize(values, np.full((2, 2), 4.0), np.ones((2, 2)))
        assert np.all(out == 0.0)
        assert np.all(values == 4.0)  # the raw input is not overwritten

    def test_identity_for_standard_stats(self):
        rng = np.random.default_rng(15)
        values = rng.uniform(0, 3, size=(4, 2, 3))
        out = normalize(values, np.zeros((2, 3)), np.ones((2, 3)))
        assert np.allclose(out, values, atol=1e-15)

    def test_degenerate_sigma_floored(self):
        values = np.zeros((2, 1, 1))
        values[1, 0, 0] = 1.0
        out = normalize(values, np.zeros((1, 1)), np.zeros((1, 1)), eps_sigma=1e-8)
        assert np.isfinite(out).all()
        assert out[1, 0, 0] == pytest.approx(1e8)

    def test_validation_self_normalization_moments(self):
        rng = np.random.default_rng(16)
        values = rng.uniform(0.1, 4.0, size=(60, 5, 3))
        out = normalize(values, *horizon_stats(values))
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="does not match tensor cells"):
            normalize(np.zeros((2, 2, 1)), np.zeros((3, 1)), np.ones((3, 1)))

    @pytest.mark.parametrize("eps_sigma", [np.inf, np.nan, 0.0, -1.0])
    def test_eps_sigma_must_be_finite_and_positive(self, eps_sigma):
        # an infinite floor would set every score to 0
        message = f"^eps_sigma must be finite and > 0, got {eps_sigma}$"
        with pytest.raises(ValidationError, match=message):
            normalize(np.zeros((2, 1, 1)), np.zeros((1, 1)), np.ones((1, 1)), eps_sigma)
        cube = stacked_ensembles(np.arange(24.0).reshape(3, 2, 4, 1), range(3), range(3))
        for normalize_scores in (True, False):
            with pytest.raises(ValidationError, match=message):
                score_timeline(cube, cube, eps_sigma=eps_sigma,
                               normalize_scores=normalize_scores)


class TestAggregateVariables:
    def test_single_variable_identity(self):
        m = np.arange(4.0)[:, None]
        assert np.array_equal(aggregate_variables(m, "mean"), np.arange(4.0))

    def test_max(self):
        assert aggregate_variables(np.array([[1.0, 3.0]]), "max")[0] == 3.0

    def test_mean_matches_flat_loop(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(6, 4))
        got = aggregate_variables(m, "mean")
        for i in range(6):
            assert got[i] == pytest.approx(sum(m[i]) / 4, abs=1e-12)

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            aggregate_variables(np.zeros((2, 2)), "median")


class TestCollateTimeline:
    def test_single_window_covers_horizon(self):
        scores = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])
        out = collate_timeline(scores, np.array([11]), series_len=20, mode="max")
        assert np.array_equal(np.flatnonzero(out.defined), [12, 13, 14, 15, 16])
        assert out.scores[13] == pytest.approx(0.2)
        assert out.lead_times[13] == 2

    def test_drops_beyond_series_end(self):
        scores = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])
        out = collate_timeline(scores, np.array([11]), series_len=16, mode="max")
        assert np.array_equal(np.flatnonzero(out.defined), [12, 13, 14, 15])

    def test_max_keeps_larger(self):
        scores = np.array([[0.2, 0.0], [0.0, 0.9]])
        # window origins 4 and 3: timestamp 5 gets 0.2 (step 1) and 0.9 (step 2)
        out = collate_timeline(scores, np.array([4, 3]), series_len=8, mode="max")
        assert out.scores[5] == pytest.approx(0.9)
        assert out.lead_times[5] == 2

    def test_max_tie_prefers_smaller_step(self):
        scores = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = collate_timeline(scores, np.array([3, 4]), series_len=8, mode="max")
        assert out.lead_times[5] == 1  # window at origin 4 wins the tie

    def test_latest_and_earliest(self):
        scores = np.array([[0.2, 0.4], [0.6, 0.8]])
        origins = np.array([3, 4])
        latest = collate_timeline(scores, origins, 8, mode="latest")
        earliest = collate_timeline(scores, origins, 8, mode="earliest")
        # timestamp 5: candidates (w0, step 2)=0.4 and (w1, step 1)=0.6
        assert latest.scores[5] == pytest.approx(0.6)
        assert latest.lead_times[5] == 1
        assert earliest.scores[5] == pytest.approx(0.4)
        assert earliest.lead_times[5] == 2

    def test_dense_run_candidate_counts(self):
        # stride-1 enumeration oracle: timestamp t has min(L_y, ...) candidates
        rng = np.random.default_rng(18)
        L_y, W, T = 4, 10, 20
        origins = np.arange(W)  # origins 0..9
        scores = rng.normal(size=(W, L_y))
        counts = np.zeros(T, dtype=int)
        best = np.full(T, -np.inf)
        for w, o in enumerate(origins):
            for i in range(1, L_y + 1):
                tau = o + i
                if tau <= T - 1:
                    counts[tau] += 1
                    best[tau] = max(best[tau], scores[w, i - 1])
        out = collate_timeline(scores, origins, T, mode="max")
        assert np.array_equal(out.defined, counts > 0)
        for tau in range(T):
            if counts[tau]:
                assert out.scores[tau] == pytest.approx(best[tau], abs=1e-12)

    def test_rejects_negative_origin(self):
        # origin -3 would score index -2, which numpy wraps to the timeline's end
        with pytest.raises(ValidationError, match="origins must be >= 0, got -3"):
            collate_timeline(np.ones((2, 2)), np.array([-3, 4]), series_len=10)

    def test_max_mode_pointwise_monotone(self):
        rng = np.random.default_rng(19)
        scores = rng.normal(size=(6, 3))
        origins = np.arange(6) + 2
        base = collate_timeline(scores, origins, 15, mode="max")
        bumped = scores.copy()
        bumped[3, 1] += 0.7
        out = collate_timeline(bumped, origins, 15, mode="max")
        defined = base.defined
        assert np.all(out.scores[defined] >= base.scores[defined] - 1e-12)


class TestUncertaintyFromEnsembles:
    def test_values_and_origins_in_cube_order(self):
        rng = np.random.default_rng(20)
        cube = ForecastCube(rng.normal(size=(2, 3, 2, 1)), [0, 1], [10, 9], ("a", "b", "c"))
        values, origins = uncertainty_from_ensembles(cube)
        assert np.array_equal(origins, [10, 9])
        assert values.shape == (2, 2, 1)
        assert np.array_equal(values[1], ensemble_variance(cube[1].predictions))


def stacked_ensembles(preds, window_ids, origins):
    """A cube of a W x M x L_y x c array, members m0, m1, ..."""
    return ForecastCube(preds, window_ids, origins, tuple(f"m{i}" for i in range(preds.shape[1])))


@st.composite
def blocked_inputs(draw):
    """Ensembles whose window count sits at a block boundary (1, block - 1,
    block, block + 1 or 2 * block + 1), with the block size in bytes that
    gives ``block`` windows of their shape."""
    M, L_y, c = draw(st.integers(2, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    block = draw(st.integers(1, 4))
    window_bytes = 8 * M * L_y * c
    block_bytes = block * window_bytes + draw(st.integers(0, window_bytes - 1))
    W = draw(st.sampled_from(sorted({1, max(1, block - 1), block, block + 1, 2 * block + 1})))
    values = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300])
    preds = draw(hnp.arrays(np.float64, (W, M, L_y, c), elements=values))
    window_ids = sorted(draw(st.lists(st.integers(-50, 50), min_size=W, max_size=W, unique=True)))
    origins = draw(st.lists(st.integers(0, 50), min_size=W, max_size=W))
    return stacked_ensembles(preds, window_ids, origins), block_bytes


class TestBlockedVarianceMatchesWindowLoop:
    """The blocked kernels against the window loop they replaced, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=blocked_inputs())
    def test_block_boundaries(self, case):
        ensembles, block_bytes = case
        expected = reference_kernels.uncertainty_from_ensembles(ensembles)
        with mock.patch.object(unc, "_BLOCK_BYTES", block_bytes):
            values, origins = uncertainty_from_ensembles(ensembles)
        assert_bits_equal(values, expected[0])
        assert np.array_equal(origins, expected[1])

    @pytest.mark.parametrize("extra", [-1, 0, 1, unc._BLOCK_BYTES // (8 * 5 * 24 * 3) + 1])
    def test_module_block_size(self, extra):
        shape = (5, 24, 3)  # the benchmark's top-5 ensemble at horizon 24
        block = unc._BLOCK_BYTES // (8 * np.prod(shape))
        W = block + extra
        rng = np.random.default_rng(W)
        ensembles = stacked_ensembles(rng.normal(size=(W, *shape)), range(W), range(W))
        values, _ = uncertainty_from_ensembles(ensembles)
        assert_bits_equal(values, reference_kernels.uncertainty_from_ensembles(ensembles)[0])

    @settings(max_examples=100, deadline=None)
    @given(preds=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 9),
                                                    st.integers(1, 3), st.integers(1, 3)),
                            elements=st.floats(-1e100, 1e100)))
    def test_one_window_and_a_block_agree(self, preds):
        block = ensemble_variance(preds)
        for w in range(preds.shape[0]):
            assert_bits_equal(ensemble_variance(preds[w]), block[w])
            assert_bits_equal(block[w], reference_kernels.ensemble_variance(preds[w]))


@st.composite
def collate_inputs(draw, special=(0.0, -0.0, 1.0, -1.0)):
    """Unsorted origins with duplicates, ties of ±0.0 and ±1.0 among the
    candidates, and windows whose horizon runs past the series end."""
    W, L_y = draw(st.integers(0, 10)), draw(st.integers(0, 5))
    origins = draw(st.lists(st.integers(0, 12), min_size=W, max_size=W))
    elements = st.sampled_from(special) | st.floats(-3, 3)
    scores = draw(hnp.arrays(np.float64, (W, L_y), elements=elements))
    series_len = max(origins, default=0) + 1 + draw(st.integers(0, 6))
    return scores, np.array(origins, dtype=np.int64), series_len


class TestCollateMatchesWindowLoop:
    @settings(max_examples=300, deadline=None)
    @given(case=collate_inputs(), mode=st.sampled_from(["max", "latest", "earliest"]))
    def test_same_winner_lead_and_error(self, case, mode):
        scores, origins, series_len = case
        out, leads = reference_kernels.collate_timeline(scores, origins, series_len, mode)
        got = collate_timeline(scores, origins, series_len, mode)
        assert_bits_equal(got.scores, out)
        assert_bits_equal(got.lead_times, leads)

    @settings(max_examples=200, deadline=None)
    @given(case=collate_inputs(special=(0.0, np.nan, np.inf, -np.inf)),
           mode=st.sampled_from(["max", "latest", "earliest"]))
    def test_non_finite_score_named(self, case, mode):
        # also a cell whose timestamp lies past the series end
        scores, origins, series_len = case
        bad = np.argwhere(~np.isfinite(scores))
        if not bad.size:
            collate_timeline(scores, origins, series_len, mode)
            return
        w, i = bad[0]
        message = f"window {w} step {i + 1} score is not finite: {scores[w, i]}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            collate_timeline(scores, origins, series_len, mode)

    def test_non_finite_score_message(self):
        scores = np.zeros((5, 3))
        scores[3, 1] = np.nan
        scores[4, 0] = np.inf
        with pytest.raises(ValidationError, match=r"^window 3 step 2 score is not finite: nan$"):
            collate_timeline(scores, np.arange(5), 10)

    def test_many_windows_on_one_origin(self):
        rng = np.random.default_rng(21)
        scores = rng.choice([0.0, -0.0, 0.5, 1.0], size=(300, 6))
        origins = np.zeros(300, dtype=np.int64)
        for mode in ("max", "latest", "earliest"):
            got = collate_timeline(scores, origins, 5, mode)
            out, leads = reference_kernels.collate_timeline(scores, origins, 5, mode)
            assert_bits_equal(got.scores, out)
            assert_bits_equal(got.lead_times, leads)


def test_score_timeline_peak_memory_below_one_full_stack():
    """Blocked variance keeps the scoring temporaries far below one
    W x M x L_y x c array (the copy a whole-stack variance would make)."""
    W, shape = 4000, (5, 24, 3)
    rng = np.random.default_rng(22)
    test_ens = stacked_ensembles(rng.normal(size=(W, *shape)), range(W), range(99, 99 + W))
    valid_ens = stacked_ensembles(rng.normal(size=(400, *shape)), range(400), range(400))
    full_stack = W * 8 * np.prod(shape)  # 11.5 MB; the scores peak at about 5 MB
    tracemalloc.start()
    try:
        score_timeline(test_ens, valid_ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * full_stack, f"peak {peak / 1e6:.1f} MB"


def test_score_timeline_refuses_another_ensembles_statistics():
    rng = np.random.default_rng(23)
    test_ens = ForecastCube(rng.normal(size=(4, 2, 3, 1)), range(4), range(10, 14), ("a", "b"))
    valid_ens = ForecastCube(rng.normal(size=(4, 2, 3, 1)), range(4), range(4), ("a", "c"))
    with pytest.raises(ValidationError, match=re.escape(
            "validation members ['a', 'c'] differ from test members ['a', 'b']")):
        score_timeline(test_ens, valid_ens)
    score_timeline(test_ens, valid_ens, normalize_scores=False)  # reads no statistics
