import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poakit.core import LabelSequence, ScoreSeries, Segment, ValidationError
from poakit.detect import (
    apply_threshold,
    best_f1_threshold,
    default_grid,
    split_precursor_prediction,
)
from poakit.metrics import merge_precursors_into_predictions, pointwise_prf
from reference_metrics import ref_structures


def score_series(values, leads=None):
    values = np.asarray(values, dtype=float)
    if leads is None:
        leads = np.where(np.isnan(values), np.nan, 1.0)
    return ScoreSeries(values, np.asarray(leads, dtype=float))


class TestApplyThreshold:
    def test_above_max_flags_nothing(self):
        s = score_series([0.1, 0.5, 2.0])
        det = apply_threshold(s, 99.0)
        assert not det.flags.any()

    def test_at_or_below_min_flags_all_defined(self):
        s = score_series([0.1, np.nan, 2.0])
        det = apply_threshold(s, 0.1)
        assert np.array_equal(det.flags, [1, 0, 1])

    def test_pointwise_with_missing(self):
        s = score_series([-1.0, 0.5, np.nan, 2.0])
        det = apply_threshold(s, 0.5)
        assert np.array_equal(det.flags, [0, 1, 0, 1])
        assert np.isnan(det.lead_times[0]) and det.lead_times[1] == 1.0

    def test_antitone_in_tau(self):
        rng = np.random.default_rng(21)
        vals = rng.normal(size=40)
        vals[rng.integers(0, 40, size=5)] = np.nan
        s = score_series(vals)
        taus = np.sort(rng.normal(size=10))
        prev = apply_threshold(s, taus[0]).flags
        for tau in taus[1:]:
            cur = apply_threshold(s, tau).flags
            assert np.all(cur <= prev)
            prev = cur

    def test_rejects_non_finite_tau(self):
        with pytest.raises(ValidationError):
            apply_threshold(score_series([1.0]), np.inf)


class TestDefaultGrid:
    def test_dedup_sorted(self):
        s = score_series([1.0, 1.0, 1.0, 5.0])
        grid = default_grid(s, 8)
        assert np.all(np.diff(grid) > 0)
        assert grid[0] == 1.0 and grid[-1] == 5.0

    def test_single_candidate(self):
        grid = default_grid(score_series([3.0, 7.0]), 1)
        assert len(grid) == 1

    def test_no_defined_scores(self):
        with pytest.raises(ValidationError):
            default_grid(score_series([np.nan, np.nan]), 4)


def pointwise_f1_eval(labels):
    def evaluate(det):
        _, _, f1 = pointwise_prf(det.flags, labels.flags)
        return f1

    return evaluate


class TestBestF1Threshold:
    def test_single_candidate(self):
        labels = LabelSequence([0, 1])
        s = score_series([0.0, 5.0])
        res = best_f1_threshold(s, labels, pointwise_f1_eval(labels), [2.0])
        assert res.threshold == 2.0
        assert res.f1 == 1.0

    def test_separable_scores(self):
        flags = np.array([0, 1, 1, 0, 1, 0, 0])
        scores = np.where(flags == 1, 5.0, 0.0)
        labels = LabelSequence(flags)
        res = best_f1_threshold(
            score_series(scores), labels, pointwise_f1_eval(labels), [-1.0, 2.5, 10.0]
        )
        assert res.threshold == 2.5
        assert res.f1 == 1.0
        assert not res.all_undefined

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(22)
        scores = rng.normal(size=200)
        labels = LabelSequence((rng.random(200) < 0.2).astype(int))
        s = score_series(scores)
        grid = default_grid(s, 64)
        evaluate = pointwise_f1_eval(labels)
        res = best_f1_threshold(s, labels, evaluate, grid)
        # brute force with the documented larger-threshold tie-break
        best = None
        for tau in sorted(grid):
            f1 = evaluate(apply_threshold(s, tau))
            if best is None or f1 >= best[1]:
                best = (tau, f1)
        assert res.threshold == best[0]
        assert res.f1 == best[1]

    def test_tie_break_prefers_larger_threshold(self):
        labels = LabelSequence([0, 0, 1])
        s = score_series([0.0, 0.0, 9.0])
        res = best_f1_threshold(s, labels, pointwise_f1_eval(labels), [1.0, 2.0, 9.0])
        assert res.threshold == 9.0

    def test_all_undefined(self):
        labels = LabelSequence([0, 1])
        s = score_series([0.0, 1.0])
        res = best_f1_threshold(s, labels, lambda det: float("nan"), [0.3, 0.7])
        assert res.all_undefined
        assert res.threshold == 0.7
        assert res.f1 == 0.0

    def test_empty_grid_rejected(self):
        labels = LabelSequence([0])
        with pytest.raises(ValidationError):
            best_f1_threshold(score_series([1.0]), labels, lambda d: 0.0, [])


def detection_from_flags(flags):
    flags = np.asarray(flags, dtype=np.int8)
    leads = np.where(flags == 1, 1.0, np.nan)
    from poakit.detect import Detection

    return Detection(flags=flags, threshold=0.5, lead_times=leads)


def anomaly_labels(start, length, T=20):
    """0/1 labels of one anomaly covering ``start .. start + length - 1``."""
    labels = np.zeros(T, dtype=np.int8)
    labels[start : start + length] = 1
    return labels


def index_sets(starts, ends):
    """Each run ``starts[i] .. ends[i]`` (inclusive) as a set of indices; a
    start of -1 (no precursor) is the empty set."""
    return [set(range(s, e + 1)) if s >= 0 else set()
            for s, e in zip(starts.tolist(), ends.tolist())]


def structure(seg):
    """A SegmentSet's anomalies, ambiguous windows, predictions and precursors,
    each a list of index sets."""
    return (index_sets(seg.anomaly_starts, seg.anomaly_ends),
            index_sets(seg.anomaly_ends + 1, seg.ambiguous_ends),
            index_sets(seg.prediction_starts, seg.prediction_ends),
            index_sets(seg.precursor_starts, seg.prediction_starts - 1))


class TestSplitPrecursorPrediction:
    def test_split_at_onset(self):
        flags = np.zeros(20, dtype=int)
        flags[8:13] = 1  # run 8..12
        out = split_precursor_prediction(
            detection_from_flags(flags), anomaly_labels(10, 5), delta=3
        )
        assert out.predictions == (Segment(10, 3),)
        assert out.precursor_starts.tolist() == [8]

    def test_run_inside_anomaly(self):
        flags = np.zeros(20, dtype=int)
        flags[11:14] = 1
        out = split_precursor_prediction(
            detection_from_flags(flags), anomaly_labels(10, 6), delta=3
        )
        assert out.predictions == (Segment(11, 3),)
        assert out.precursor_starts.tolist() == [-1]

    def test_run_with_no_overlap_stays_prediction(self):
        flags = np.zeros(20, dtype=int)
        flags[3:7] = 1
        out = split_precursor_prediction(
            detection_from_flags(flags), anomaly_labels(10, 5), delta=3
        )
        assert out.predictions == (Segment(3, 4),)
        assert out.precursor_starts.tolist() == [-1]

    def test_run_starting_at_onset(self):
        flags = np.zeros(20, dtype=int)
        flags[10:14] = 1
        out = split_precursor_prediction(
            detection_from_flags(flags), anomaly_labels(10, 5), delta=3
        )
        assert out.predictions == (Segment(10, 4),)
        assert out.precursor_starts.tolist() == [-1]

    def test_flags_preserved_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            T = 40
            flags = rng.integers(0, 2, size=T)
            labels = rng.integers(0, 2, size=T)
            out = split_precursor_prediction(
                detection_from_flags(flags), labels, delta=int(rng.integers(0, 5))
            )
            _, _, predictions, precursors = structure(out)
            assert set().union(*predictions, *precursors) == set(np.flatnonzero(flags))

    def test_ambiguous_windows_attached(self):
        flags = np.zeros(20, dtype=int)
        out = split_precursor_prediction(
            detection_from_flags(flags), anomaly_labels(5, 3), delta=4
        )
        assert out.anomaly_ends.tolist() == [7]
        assert out.ambiguous_ends.tolist() == [11]  # the window 8..11
        assert out.delta == 4

    def test_labels_must_match_detection_length(self):
        # a 500-row label file against a 600-row detection used to pass in sweep
        det = detection_from_flags(np.zeros(600, dtype=int))
        with pytest.raises(ValidationError, match="labels length 500 != detection length 600"):
            split_precursor_prediction(det, np.zeros(500, dtype=int), delta=3)

    def test_labels_must_be_binary(self):
        det = detection_from_flags(np.zeros(4, dtype=int))
        with pytest.raises(ValidationError, match="label flags must be 0 or 1"):
            split_precursor_prediction(det, [0, 2, 0, 0], delta=3)

    @settings(max_examples=200, deadline=None)
    @given(
        bits=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=40),
        delta=st.integers(0, 6),
    )
    def test_structures_match_reference(self, bits, delta):
        # the sets the checked SegmentSet constructor accepts from the program
        labels = [label for label, _ in bits]
        flags = np.array([flag for _, flag in bits], dtype=np.int8)
        anomalies, ambiguous, predictions, precursors = ref_structures(labels, flags.tolist(), delta)
        out = split_precursor_prediction(detection_from_flags(flags), labels, delta)
        assert structure(out) == (anomalies, ambiguous, predictions, precursors)
        merged = merge_precursors_into_predictions(out)
        assert structure(merged) == (anomalies, ambiguous,
                                     [p | pp for p, pp in zip(predictions, precursors)],
                                     [set()] * len(predictions))
