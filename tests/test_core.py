import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import poakit
from poakit.core import (
    LabelSequence,
    ScoreSeries,
    Segment,
    SegmentSet,
    TimeSeries,
    ValidationError,
    ambiguous_ends,
    run_bounds,
)
from poakit.detect import Detection
from poakit.metrics import pointwise_prf


class TestTimeSeries:
    def test_basic(self):
        ts = TimeSeries(np.arange(3), np.zeros((3, 2)))
        assert len(ts) == 3
        assert ts.n_variables == 2

    def test_rejects_non_unit_step(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.array([0, 2, 3]), np.zeros((3, 1)))

    def test_rejects_nan(self):
        vals = np.zeros((3, 1))
        vals[1, 0] = np.nan
        with pytest.raises(ValidationError, match="row 1"):
            TimeSeries(np.arange(3), vals)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.array([], dtype=int), np.zeros((0, 1)))

    def test_immutable(self):
        ts = TimeSeries(np.arange(3), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            ts.values[0, 0] = 1.0


class TestLabelSequence:
    def test_basic(self):
        labels = LabelSequence([0, 1, 1, 0])
        assert len(labels) == 4

    def test_rejects_other_values(self):
        with pytest.raises(ValidationError):
            LabelSequence([0, 2, 0])

    @pytest.mark.parametrize(
        "values", [[0.5, 1], [-0.9, 1], np.array([257, 1]), [300], [np.nan, 1]],
        ids=["half", "negative-fraction", "wraps-to-1", "beyond-int8", "nan"],
    )
    @pytest.mark.parametrize("build", [
        LabelSequence,
        lambda flags: Detection(flags, threshold=0.5, lead_times=np.zeros(len(flags))),
        lambda flags: pointwise_prf(flags, [0] * len(flags)),
        lambda flags: pointwise_prf([0] * len(flags), flags),
    ], ids=["labels", "detection", "prf-flags", "prf-labels"])
    def test_values_checked_before_int8_cast(self, values, build):
        # the cast used to truncate 0.5 and -0.9 to 0 and wrap 257 to 1
        with pytest.raises(ValidationError, match="must be 0 or 1"):
            build(values)


class TestSegment:
    def test_end_inclusive(self):
        seg = Segment(3, 2)
        assert seg.end == 4
        assert list(range(seg.start, seg.end + 1)) == [3, 4]

    def test_rejects_zero_length(self):
        with pytest.raises(ValidationError):
            Segment(0, 0)


class TestSegmentsFromFlags:
    """Segment bounds from 0/1 flags: ``run_bounds``."""

    def test_no_flags(self):
        starts, ends = run_bounds(np.zeros(3, dtype=np.int8))
        assert starts.size == ends.size == 0

    def test_two_runs(self):
        starts, ends = run_bounds(np.array([1, 1, 0, 1], dtype=np.int8))
        assert (starts.tolist(), ends.tolist()) == ([0, 3], [1, 3])

    def test_empty_input(self):
        starts, ends = run_bounds(np.zeros(0, dtype=np.int8))
        assert starts.size == ends.size == 0

    def test_random_sequences_cover_flagged_indices(self):
        # brute-force index-set comparison on random 50-bit sequences
        rng = np.random.default_rng(7)
        for _ in range(200):
            flags = rng.integers(0, 2, size=50)
            starts, ends = run_bounds(flags)
            covered = set()
            for s, e in zip(starts.tolist(), ends.tolist()):
                idx = set(range(s, e + 1))
                assert not covered & idx, "segments must be disjoint"
                covered |= idx
            assert covered == {i for i, f in enumerate(flags) if f == 1}
            assert np.all(np.diff(starts) > 0)

    @given(st.lists(st.integers(0, 1), max_size=80))
    def test_round_trip(self, flags):
        starts, ends = run_bounds(np.asarray(flags, dtype=np.int8))
        recovered = np.zeros(len(flags), dtype=np.int8)
        for s, e in zip(starts.tolist(), ends.tolist()):
            recovered[s : e + 1] = 1
        assert np.array_equal(recovered, np.asarray(flags, dtype=np.int8))
        # maximal runs: a gap of at least one 0 separates neighbours
        assert np.all(starts[1:] > ends[:-1] + 1)


def ambiguous_windows(anomalies, delta, series_len):
    """Each anomaly's ambiguous window as a Segment, None where it is empty."""
    starts, lengths = np.array(anomalies, dtype=np.int64).reshape(-1, 2).T
    ends = starts + lengths - 1
    window_ends = ambiguous_ends(starts, ends, delta, series_len)
    return [Segment(end + 1, window_end - end) if window_end > end else None
            for end, window_end in zip(ends.tolist(), window_ends.tolist())]


class TestAmbiguousExtensions:
    """Each anomaly's trailing window: ``ambiguous_ends``."""

    def test_full_window_fits(self):
        assert ambiguous_windows([(5, 3)], delta=4, series_len=20) == [Segment(8, 4)]

    def test_clipped_at_series_end(self):
        assert ambiguous_windows([(5, 3)], delta=4, series_len=10) == [Segment(8, 2)]

    def test_clipped_at_next_anomaly(self):
        # verified by enumeration: indices 3,4 are free; 5 starts the next anomaly
        out = ambiguous_windows([(0, 3), (5, 2)], delta=4, series_len=20)
        assert out[0] == Segment(3, 2)

    def test_adjacent_anomaly_gives_empty(self):
        out = ambiguous_windows([(0, 3), (3, 2)], delta=4, series_len=20)
        assert out[0] is None

    def test_anomaly_at_series_end_gives_empty(self):
        assert ambiguous_windows([(7, 3)], delta=4, series_len=10) == [None]

    @pytest.mark.parametrize("delta", [2**63 - 1, 10**20])
    def test_delta_past_int64_reaches_the_series_end(self, delta):
        # ends + delta wrapped to an empty window, or overflowed
        assert ambiguous_windows([(5, 3)], delta=delta, series_len=20) == [Segment(8, 12)]

    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)), max_size=4),
        st.integers(0, 8),
        st.integers(41, 60),
    )
    def test_never_overlaps_anomalies_and_bounded(self, raw, delta, series_len):
        # build disjoint sorted anomalies from arbitrary (start, len) pairs
        anomalies = []
        cursor = 0
        for start, length in sorted(raw):
            start = max(start, cursor)
            if start + length > series_len:
                break
            anomalies.append((start, length))
            cursor = start + length
        out = ambiguous_windows(anomalies, delta, series_len)
        anomaly_idx = set()
        for start, length in anomalies:
            anomaly_idx |= set(range(start, start + length))
        for amb in out:
            if amb is None:
                continue
            assert amb.length <= delta
            assert amb.end <= series_len - 1
            assert not (set(range(amb.start, amb.end + 1)) & anomaly_idx)


def arrays(**changes):
    """Constructor arguments of a valid SegmentSet (two anomalies, two
    predictions, the first with a precursor), with ``changes`` applied."""
    args = dict(
        anomaly_starts=[10, 20], anomaly_ends=[14, 24], ambiguous_ends=[18, 24],
        prediction_starts=[11, 26], prediction_ends=[12, 26], precursor_starts=[8, -1],
        delta=4,
    )
    args.update(changes)
    return {name: value if name == "delta" else np.array(value) for name, value in args.items()}


class TestSegmentSet:
    def test_valid_construction(self):
        seg = SegmentSet(**arrays())
        assert seg.anomalies == (Segment(10, 5), Segment(20, 5))
        # anomaly 0's window is 15..18, anomaly 1's is empty
        assert seg.anomaly_ends.tolist() == [14, 24]
        assert seg.ambiguous_ends.tolist() == [18, 24]
        assert seg.predictions == (Segment(11, 2), Segment(26, 1))
        # prediction 0's precursor is 8..10, prediction 1 has none
        assert seg.prediction_starts.tolist() == [11, 26]
        assert seg.precursor_starts.tolist() == [8, -1]
        assert seg.delta == 4

    def test_arrays_are_read_only_copies(self):
        args = arrays()
        seg = SegmentSet(**args)
        args["anomaly_starts"][0] = 11
        assert seg.anomaly_starts.tolist() == [10, 20]
        with pytest.raises(ValueError):
            seg.anomaly_starts[0] = 0
        with pytest.raises(AttributeError, match="read-only"):
            seg.delta = 3

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        seg = SegmentSet(empty, empty, empty, empty, empty, empty, 0)
        assert len(seg.anomalies) == len(seg.predictions) == 0

    def test_rejects_overlapping_predictions(self):
        with pytest.raises(ValidationError, match=re.escape(
                "prediction segments must be disjoint and sorted by start: "
                "[11, 20] followed by [20, 26]")):
            SegmentSet(**arrays(prediction_starts=[11, 20], prediction_ends=[20, 26]))

    def test_rejects_detached_precursor(self):
        # a precursor must start before its prediction
        with pytest.raises(ValidationError, match=re.escape(
                "prediction 0 precursor start 11 must be -1 or in [0, 11)")):
            SegmentSet(**arrays(precursor_starts=[11, -1]))

    def test_largest_int64_delta(self):
        # end + delta wrapped negative, and every ambiguous end was refused
        seg = SegmentSet(**arrays(delta=2**63 - 1))
        assert seg.anomaly_ends.tolist() == [14, 24]
        assert seg.ambiguous_ends.tolist() == [18, 24]

    def test_rejects_misaligned_ambiguous(self):
        with pytest.raises(ValidationError, match=re.escape(
                "anomaly 0 ambiguous end 19 must be in [14, 18]")):
            SegmentSet(**arrays(ambiguous_ends=[19, 24]))

    @pytest.mark.parametrize("changes, message", [
        ({"delta": -1}, "delta must be >= 0, got -1"),
        ({"delta": 4.0}, "delta must be an integer, got 4.0"),
        ({"delta": True}, "delta must be an integer, got True"),
        ({"anomaly_starts": [10.0, 20.0]}, "anomaly_starts must hold integers, got dtype float64"),
        ({"prediction_ends": [True, True]}, "prediction_ends must hold integers, got dtype bool"),
        ({"anomaly_ends": [[14, 24]]}, "anomaly_ends must be 1-D, got shape (1, 2)"),
        ({"anomaly_starts": [-1, 20]}, "anomaly 0 starts at -1, before 0"),
        ({"prediction_starts": [11, -2], "prediction_ends": [12, -1]},
         "prediction 1 starts at -2, before 0"),
        ({"anomaly_ends": [9, 24]}, "anomaly 0 ends at 9, before its start 10"),
        ({"prediction_ends": [12, 25]}, "prediction 1 ends at 25, before its start 26"),
        ({"anomaly_starts": [20, 10], "anomaly_ends": [24, 14]},
         "anomaly segments must be disjoint and sorted by start: [20, 24] followed by [10, 14]"),
        ({"anomaly_ends": [14]}, "need one anomaly end per anomaly start, got 1 for 2"),
        ({"prediction_ends": [12, 26, 30]},
         "need one prediction end per prediction start, got 3 for 2"),
        ({"ambiguous_ends": [18]}, "need one ambiguous end per anomaly, got 1 for 2"),
        ({"ambiguous_ends": [13, 24]}, "anomaly 0 ambiguous end 13 must be in [14, 18]"),
        ({"ambiguous_ends": [13, 24], "delta": 2**63 - 1},
         "anomaly 0 ambiguous end 13 must be in [14, 9223372036854775821]"),
        ({"precursor_starts": [8]}, "need one precursor start per prediction, got 1 for 2"),
        ({"precursor_starts": [-2, -1]}, "prediction 0 precursor start -2 must be -1 or in [0, 11)"),
        ({"precursor_starts": [8, 30]}, "prediction 1 precursor start 30 must be -1 or in [0, 26)"),
        ({"precursor_starts": [8, 12]},
         "prediction 1 precursor start 12 reaches back into prediction 0 [11, 12]"),
    ], ids=["negative-delta", "float-delta", "bool-delta", "float-array", "bool-array",
            "2-d-array", "negative-anomaly-start", "negative-prediction-start",
            "anomaly-end-before-start", "prediction-end-before-start", "unsorted-anomalies",
            "anomaly-ends-count", "prediction-ends-count", "ambiguous-ends-count",
            "ambiguous-end-before-anomaly-end", "ambiguous-bound-past-int64",
            "precursor-starts-count",
            "precursor-start-below-minus-1", "precursor-start-after-prediction",
            "precursor-inside-previous-prediction"])
    def test_rejects(self, changes, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            SegmentSet(**arrays(**changes))


class TestScoreSeries:
    def test_defined_mask(self):
        s = ScoreSeries(np.array([1.0, np.nan, 2.0]), np.array([1.0, np.nan, 3.0]))
        assert np.array_equal(s.defined, [True, False, True])

    def test_rejects_mismatched_missingness(self):
        with pytest.raises(ValidationError):
            ScoreSeries(np.array([1.0, np.nan]), np.array([np.nan, np.nan]))

    def test_rejects_infinite_score(self):
        with pytest.raises(ValidationError):
            ScoreSeries(np.array([np.inf]), np.array([1.0]))


# The package's public names: adding or removing one is an edit here.
PUBLIC_NAMES = [
    "DataFormatError",
    "LabelSequence",
    "NumericError",
    "ScoreSeries",
    "Segment",
    "SegmentSet",
    "TimeSeries",
    "ValidationError",
    "__version__",
]


def test_public_names_pinned():
    assert poakit.__all__ == PUBLIC_NAMES
    assert all(hasattr(poakit, name) for name in PUBLIC_NAMES)
