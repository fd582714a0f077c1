import numpy as np
import pytest

from poakit.core import ValidationError
from poakit.forecast import EnsembleForecast
from poakit.uncertainty import (
    aggregate_variables,
    collate_timeline,
    ensemble_variance,
    horizon_stats,
    normalize,
    uncertainty_from_ensembles,
)


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
    def test_orders_by_window_id(self):
        rng = np.random.default_rng(20)
        e1 = EnsembleForecast(1, 10, rng.normal(size=(3, 2, 1)), ("a", "b", "c"))
        e0 = EnsembleForecast(0, 9, rng.normal(size=(3, 2, 1)), ("a", "b", "c"))
        values, origins = uncertainty_from_ensembles([e1, e0])
        assert np.array_equal(origins, [9, 10])
        assert values.shape == (2, 2, 1)
        assert np.array_equal(values[0], ensemble_variance(e0.predictions))
