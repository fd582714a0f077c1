import numpy as np
import pytest

from poakit.core import DataFormatError, LabelSequence, ScoreSeries, Segment, TimeSeries, ValidationError
from poakit.detect import Detection
from poakit.io import (
    chronological_split,
    read_detection,
    read_labels_csv,
    read_scores,
    read_segments_csv,
    read_series_csv,
    write_detection,
    write_json,
    write_labels_csv,
    write_manifest,
    write_scores,
    write_segments_csv,
    write_series_csv,
    write_theta_curve_csv,
)


def sample_series(T=5, c=2, start=0):
    rng = np.random.default_rng(41)
    return TimeSeries(np.arange(start, start + T), rng.normal(size=(T, c)), ("a", "b"))


class TestSeriesCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,x,y\n0,1.5,2.5\n1,3.0,4.0\n2,5.0,6.0\n")
        ts = read_series_csv(path)
        assert len(ts) == 3 and ts.n_variables == 2
        assert ts.variable_names == ("x", "y")

    def test_round_trip(self, tmp_path):
        series = sample_series()
        path = tmp_path / "s.csv"
        write_series_csv(path, series)
        back = read_series_csv(path)
        assert np.allclose(back.values, series.values, rtol=1e-8)
        assert np.array_equal(back.timestamps, series.timestamps)

    def test_one_based_round_trip(self, tmp_path):
        series = sample_series()
        path = tmp_path / "s.csv"
        write_series_csv(path, series, index_base=1)
        first_line = path.read_text().splitlines()[1]
        assert first_line.startswith("1,")
        back = read_series_csv(path, index_base=1)
        assert np.array_equal(back.timestamps, series.timestamps)
        assert np.allclose(back.values, series.values, rtol=1e-8)

    def test_duplicate_timestamp_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,x\n0,1.0\n0,2.0\n")
        with pytest.raises(DataFormatError, match="row 3"):
            read_series_csv(path)

    def test_gap_in_timestamps(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,x\n0,1.0\n2,2.0\n")
        with pytest.raises(DataFormatError, match="unit-step"):
            read_series_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,x,y\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataFormatError, match="row 3"):
            read_series_csv(path)

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,x\n0,1.0\n1,nan\n")
        with pytest.raises(DataFormatError, match="row 3"):
            read_series_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            read_series_csv(path)


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        labels = LabelSequence([0, 1, 1, 0, 1])
        path = tmp_path / "l.csv"
        write_labels_csv(path, labels)
        back = read_labels_csv(path)
        assert np.array_equal(back.flags, labels.flags)

    def test_rejects_bad_flag(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("timestamp,label\n0,2\n")
        with pytest.raises(DataFormatError, match="0 or 1"):
            read_labels_csv(path)


class TestChronologicalSplit:
    def test_seventy_thirty(self):
        train, valid = chronological_split(sample_series(10), 0.7)
        assert len(train) == 7 and len(valid) == 3
        assert train.timestamps[-1] + 1 == valid.timestamps[0]

    def test_floor_rule_odd_length(self):
        train, valid = chronological_split(sample_series(7), 0.5)
        assert len(train) == 3 and len(valid) == 4

    def test_large_counts(self):
        series = TimeSeries(np.arange(495884), np.zeros((495884, 1)))
        train, valid = chronological_split(series, 0.7)
        assert len(train) == 347118
        assert len(valid) == 148766

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            chronological_split(sample_series(10), 1.0)
        with pytest.raises(ValidationError):
            chronological_split(sample_series(1, 1), 0.5)


class TestScoresCsv:
    def test_round_trip_with_missing(self, tmp_path):
        scores = ScoreSeries(
            np.array([0.5, np.nan, -1.25, np.nan]),
            np.array([3.0, np.nan, 1.0, np.nan]),
        )
        path = tmp_path / "scores.csv"
        write_scores(path, scores)
        back = read_scores(path)
        assert np.array_equal(back.defined, scores.defined)
        assert np.allclose(back.scores[back.defined], scores.scores[scores.defined], rtol=1e-8)
        assert np.array_equal(back.lead_times[back.defined], scores.lead_times[scores.defined])


    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,0.5,1\n2,0.5,1\n1,0.5,1\n", r"row 3 breaks unit-step timestamps \(0 -> 2\)"),
            ("0,0.5,1\n0,0.5,1\n1,0.5,1\n", "row 3 duplicates timestamp 0"),
            ("0,0.5,1\n2,0.5,1\n3,0.5,1\n", r"row 3 breaks unit-step timestamps \(0 -> 2\)"),
            ("0,0.5,1\nx,0.5,1\n", "row 3 has non-integer timestamp 'x'"),
        ],
        ids=["reordered", "repeated", "shifted", "non-integer"],
    )
    def test_rejects_bad_timestamps(self, tmp_path, rows, message):
        path = tmp_path / "scores.csv"
        path.write_text("timestamp,score,lead_time\n" + rows)
        with pytest.raises(DataFormatError, match=message):
            read_scores(path)


class TestDetectionCsv:
    @staticmethod
    def write(path, rows, sidecar='{"threshold": 0.5}'):
        path.write_text("timestamp,flag,lead_time\n" + rows)
        if sidecar is not None:
            (path.parent / (path.name + ".meta.json")).write_text(sidecar)

    def test_round_trip_with_sidecar(self, tmp_path):
        det = Detection(
            flags=np.array([0, 1, 1, 0], dtype=np.int8),
            threshold=1.25,
            lead_times=np.array([np.nan, 2.0, 1.0, np.nan]),
        )
        path = tmp_path / "det.csv"
        write_detection(path, det, meta={"grid": "256 quantiles"})
        back = read_detection(path)
        assert np.array_equal(back.flags, det.flags)
        assert back.threshold == pytest.approx(1.25)
        assert np.array_equal(back.lead_times[back.flags == 1], det.lead_times[det.flags == 1])

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            (None, "missing sidecar det.csv.meta.json"),
            ('{"grid": "256 quantiles"}', "no numeric 'threshold'"),
            ('{"threshold": null}', "no numeric 'threshold'"),
            ("not json", "no numeric 'threshold'"),
        ],
        ids=["missing", "no-threshold", "null-threshold", "invalid-json"],
    )
    def test_threshold_never_defaulted(self, tmp_path, sidecar, message):
        path = tmp_path / "det.csv"
        self.write(path, "0,1,1\n1,0,\n", sidecar)
        with pytest.raises(DataFormatError, match=message):
            read_detection(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,1,1\n2,0,\n1,0,\n", r"row 3 breaks unit-step timestamps \(0 -> 2\)"),
            ("1,1,1\n2,0,\n4,0,\n", r"row 4 breaks unit-step timestamps \(2 -> 4\)"),
            ("0,1,1\n0,0,\n", "row 3 duplicates timestamp 0"),
            ("0.5,1,1\n", "row 2 has non-integer timestamp '0.5'"),
        ],
        ids=["reordered", "shifted", "repeated", "non-integer"],
    )
    def test_rejects_bad_timestamps(self, tmp_path, rows, message):
        path = tmp_path / "det.csv"
        self.write(path, rows)
        with pytest.raises(DataFormatError, match=message):
            read_detection(path)


class TestSegmentsCsv:
    def test_round_trip(self, tmp_path):
        segs = [Segment(3, 5), Segment(20, 1)]
        path = tmp_path / "segs.csv"
        write_segments_csv(path, segs)
        assert read_segments_csv(path) == segs


class TestReportJson:
    def test_report_with_sweep(self, tmp_path):
        import json

        from poakit import metrics as mx
        from poakit.cli import _evaluation_payload
        from poakit.core import SegmentSet, ambiguous_extensions

        T = 40
        flags = np.zeros(T, dtype=np.int8)
        flags[10:15] = 1
        detection = Detection(flags, threshold=0.5, lead_times=np.zeros(T))
        labels = LabelSequence(flags)
        anomalies = (Segment(10, 5),)
        seg = SegmentSet(
            anomalies=anomalies,
            predictions=(Segment(10, 5),),
            precursors=(None,),
            ambiguous=tuple(ambiguous_extensions(list(anomalies), 4, T)),
            delta=4,
        )
        params = mx.MetricParams(theta=0.5, delta=4)
        report = mx.ptapr_report(seg, params)
        sweep = mx.ptapr_theta_sweep(seg, params, np.linspace(0, 1, 11))
        path = tmp_path / "report.json"
        write_json(path, _evaluation_payload(detection, labels, params, {"ptapr"}, 11))

        data = json.loads(path.read_text())
        ptapr = data["ptapr"]
        assert data["params"]["delta"] == 4
        assert ptapr["at_theta"]["f1"] == pytest.approx(report.f1, abs=1e-8)
        assert ptapr["at_theta"]["recall_components"]["detection"] == 1.0
        assert ptapr["auc"] == pytest.approx(sweep.auc, abs=1e-8)
        assert len(ptapr["curve"]["theta"]) == len(sweep.thetas)
        assert len(ptapr["diagnostics"]["anomaly_coverage"]) == 1


class TestJsonAndManifest:
    def test_json_numpy_and_nan(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(
            path,
            {"a": np.float64(1.23456789012345), "b": np.arange(3), "c": float("nan")},
        )
        import json

        data = json.loads(path.read_text())
        assert data["b"] == [0, 1, 2]
        assert data["c"] is None
        assert abs(data["a"] - 1.23456789) < 1e-8

    def test_theta_curve(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_theta_curve_csv(path, [0.0, 1.0], [1.0, 0.5], [0.8, 0.4], [0.888, 0.444])
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,ptar,ptap,f1"
        assert len(lines) == 3

    def test_manifest(self, tmp_path):
        f = tmp_path / "out.csv"
        f.write_text("x\n")
        path = tmp_path / "manifest.json"
        write_manifest(path, {"length": 10}, seed=42, files=[f])
        import json

        data = json.loads(path.read_text())
        assert data["seed"] == 42
        assert "out.csv" in data["files"]
        assert len(data["files"]["out.csv"]["sha256"]) == 64
        assert data["versions"]["poakit"]
