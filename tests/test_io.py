import hashlib

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poakit.core import DataFormatError, LabelSequence, ScoreSeries, Segment, TimeSeries, ValidationError
from poakit.detect import Detection
from poakit.forecast import ingest_external_forecasts
from poakit.io import (
    chronological_split,
    read_detection,
    read_json_object,
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

    def test_first_bad_value_in_file_order(self, tmp_path):
        # a non-finite value used to be named only after every cell had parsed
        path = tmp_path / "s.csv"
        path.write_text("timestamp,x,y\n0,1.0,2.0\n1,3.0,nan\n2,x,4.0\n")
        with pytest.raises(DataFormatError, match="row 3 column 3 is not finite$"):
            read_series_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("-1,1.0\n0,2.0\n", "negative timestamp"),
            ("9223372036854775807,1.0\n9223372036854775808,2.0\n",
             "timestamp beyond the int64 range"),
        ],
        ids=["negative", "beyond-int64"],
    )
    def test_timestamps_outside_int64(self, tmp_path, rows, message):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,x\n" + rows)
        with pytest.raises(DataFormatError, match=message):
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
            ("0,,\n1,0.5,\n", "row 3 lead_time must be defined exactly where score is"),
            ("0,,\n1,0.5,1\n2,inf,1\n", "row 4 defined scores must be finite"),
            ("0,0.5,inf\n1,0.2,1\n", "row 2 lead_time must be a whole number >= 1"),
            ("0,0.5,1\n1,0.2,1.5\n", "row 3 lead_time must be a whole number >= 1"),
            ("0,0.5,-3\n", "row 2 lead_time must be a whole number >= 1"),
            ("0,,\n1,0.5,0\n", "row 3 lead_time must be a whole number >= 1"),
        ],
        ids=["score-without-lead", "infinite-score", "infinite-lead", "fractional-lead",
             "negative-lead", "zero-lead"],
    )
    def test_value_rules_name_file_and_row(self, tmp_path, rows, message):
        # both used to come from ScoreSeries, naming neither file nor row
        path = tmp_path / "scores.csv"
        path.write_text("timestamp,score,lead_time\n" + rows)
        with pytest.raises(DataFormatError, match=f"scores.csv: {message}$"):
            read_scores(path)


    @pytest.mark.parametrize(
        "reader, rows, message",
        [
            (read_scores, "0,0.5,1\n2,0.5,1\n1,0.5,1\n",
             r"row 3 breaks unit-step timestamps \(0 -> 2\)"),
            (read_scores, "0,0.5,1\n0,0.5,1\n1,0.5,1\n", "row 3 duplicates timestamp 0"),
            (read_scores, "0,0.5,1\n2,0.5,1\n3,0.5,1\n",
             r"row 3 breaks unit-step timestamps \(0 -> 2\)"),
            (read_scores, "0,0.5,1\nx,0.5,1\n", "row 3 has non-integer timestamp 'x'"),
            (read_labels_csv, "0,0\n0,1\n", "row 3 duplicates timestamp 0"),
            (read_labels_csv, "0,0\nx,1\n", "row 3 has non-integer timestamp 'x'"),
        ],
        ids=["reordered", "repeated", "shifted", "non-integer",
             "labels-repeated", "labels-non-integer"],
    )
    def test_rejects_bad_timestamps(self, tmp_path, reader, rows, message):
        path = tmp_path / "scores.csv"
        header = "timestamp,label\n" if reader is read_labels_csv else "timestamp,score,lead_time\n"
        path.write_text(header + rows)
        with pytest.raises(DataFormatError, match=message):
            reader(path)


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
            ("not json", r"det\.csv\.meta\.json: not valid JSON"),
            ('{"threshold": NaN}', "no numeric 'threshold'"),
            ('{"threshold": Infinity}', "no numeric 'threshold'"),
            ('{"threshold": true}', "no numeric 'threshold'"),
            ('{"threshold": "0.5"}', "no numeric 'threshold'"),
        ],
        ids=["missing", "no-threshold", "null-threshold", "invalid-json",
             "nan-threshold", "infinite-threshold", "bool-threshold", "string-threshold"],
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

    @pytest.mark.parametrize("lead", ["inf", "1.5", "-3", "0"])
    def test_lead_time_is_a_whole_step(self, tmp_path, lead):
        path = tmp_path / "det.csv"
        self.write(path, f"0,1,2\n1,1,{lead}\n2,0,\n")
        with pytest.raises(DataFormatError,
                           match="det.csv: row 3 lead_time must be a whole number >= 1$"):
            read_detection(path)


class TestSegmentsCsv:
    def test_round_trip(self, tmp_path):
        segs = [Segment(3, 5), Segment(20, 1)]
        path = tmp_path / "segs.csv"
        write_segments_csv(path, segs)
        assert read_segments_csv(path) == segs

    @pytest.mark.parametrize(
        "text,message",
        [
            ("start,length\n3,5,junk\n", "row 2 is malformed"),
            ("start,length\n3,5\n4\n", "row 3 is malformed"),
            ("start,length,note\n3,5,x\n", "header has 3 columns, expected 2"),
            ("begin,len\n3,5\n", "header is 'begin,len', expected 'start,length'"),
        ],
        ids=["extra-field", "missing-field", "wide-header", "wrong-names"],
    )
    def test_rejects_malformed_table(self, tmp_path, text, message):
        path = tmp_path / "segs.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            read_segments_csv(path)


class TestReportJson:
    def test_report_with_sweep(self, tmp_path):
        import json

        from poakit import metrics as mx
        from poakit.cli import _evaluation_payload
        from conftest import segment_set

        T = 40
        flags = np.zeros(T, dtype=np.int8)
        flags[10:15] = 1
        detection = Detection(flags, threshold=0.5, lead_times=np.zeros(T))
        labels = LabelSequence(flags)
        seg = segment_set([(10, 5)], [(10, 5)], delta=4, series_len=T)
        params = mx.MetricParams(theta=0.5, delta=4)
        report = mx.ptapr_report(seg, params)
        sweep = mx.ptapr_theta_sweep(report, np.linspace(0, 1, 11))
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

    def test_theta_curve_refuses_unequal_columns(self, tmp_path):
        # zip used to cut every column to the shortest
        path = tmp_path / "curve.csv"
        with pytest.raises(ValueError, match="argument 2 is shorter than argument 1"):
            write_theta_curve_csv(path, [0.0, 0.5, 1.0], [1.0, 0.5], [0.8, 0.4, 0.1], [1, 1, 1])
        assert not path.exists()

    @pytest.mark.parametrize("data, message", [
        (b'{"a": 1', r"not valid JSON \(Expecting"),
        (b"[1]", "must be a JSON object, got list"),
        (b'"x"', "must be a JSON object, got str"),
        (b'{"\xff": 1}', r"not UTF-8 text: byte 0xff \(invalid start byte\)$"),
    ], ids=["truncated", "list", "string", "not-utf8"])
    def test_json_object_reader_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "r.json"
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match=rf"r\.json: {message}"):
            read_json_object(path)

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


class TestTableFormat:
    @pytest.mark.parametrize("name", ["labels", "scores", "detection"])
    def test_rejects_negative_first_timestamp(self, tmp_path, name):
        # only the series reader used to refuse a table starting at -1
        with pytest.raises(DataFormatError, match="row 2 has negative timestamp -1$"):
            read_one_row(tmp_path, name, ts="-1", flag="0", value="0.5")

    @pytest.mark.parametrize("reader", [read_scores, read_detection], ids=["scores", "detection"])
    def test_rejects_header_narrower_than_rows(self, tmp_path, reader):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,score\n0,0.5,1\n1,0.5,1\n")
        (tmp_path / "t.csv.meta.json").write_text('{"threshold": 0.5}')
        with pytest.raises(DataFormatError, match="header has 2 columns, expected 3"):
            reader(path)

    @pytest.mark.parametrize(
        "text", ['timestamp,x\n0,"1\n', "timestamp,x\n0," + "1" * 200_000 + "\n"],
        ids=["unterminated-quote", "oversized-field"],
    )
    def test_rejects_what_csv_cannot_split(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match="not a CSV table"):
            read_series_csv(path)


# reader, header and one data row of each timestamped table
TABLES = {
    "series": (read_series_csv, "timestamp,x", "{ts},{value}"),
    "labels": (read_labels_csv, "timestamp,label", "{ts},{flag}"),
    "scores": (read_scores, "timestamp,score,lead_time", "{ts},{value},{value}"),
    "detection": (read_detection, "timestamp,flag,lead_time", "{ts},{flag},{value}"),
}


def read_one_row(root, name, ts="0", flag="1", value="2"):  # a lead time must be whole
    reader, header, row = TABLES[name]
    path = root / f"{name}.csv"
    path.write_text(f"{header}\n{row.format(ts=ts, flag=flag, value=value)}\n")
    (root / f"{name}.csv.meta.json").write_text('{"threshold": 0.5}')
    return reader(path)


# Spellings of a number in a CSV cell: (cell, its value in an integer field,
# its value in a float field), None where the grammar refuses it. Every
# accepted integer is 1, so each integer field below takes them. inf, nan and
# (in a lead-time column) a float that is not a whole number >= 1 are numbers
# to the grammar, and each float field's own value rule decides them
# (TestSeriesCsv, TestScoresCsv, TestDetectionCsv); every refused spelling is
# tried on every field.
SPELLINGS = [
    ("1", 1, 1.0), ("+1", 1, 1.0), (" 1 ", 1, 1.0), ("\t1", 1, 1.0),
    ("001", 1, 1.0),  # leading zeros
    ("1\xa0", 1, 1.0), ("\xa01", 1, 1.0), ("\u20071", 1, 1.0), ("1\u3000", 1, 1.0),
    ("1.0", None, 1.0), ("1e3", None, 1000.0), (".5", None, 0.5), ("5.", None, 5.0),
    ("-2.5", None, -2.5), ("inf", None, np.inf), ("Infinity", None, np.inf),
    ("nan", None, np.nan),
    ("1_0", None, None), ("0_1", None, None), ("1e1_0", None, None),
    ("\u0661", None, None), ("\uff11", None, None), ("1\u0661", None, None),
    ("0x10", None, None), ("1 0", None, None), ("\u22121", None, None), ("one", None, None),
]
RECORD_HEADER = "window_id,origin,member_id,step,variable,value\n"


def first_record(path):
    (ensemble,) = ingest_external_forecasts(path)
    return ensemble


# field -> (reader, file name, file text around {cell}, the value read back;
# None where the reader returns no timestamps)
INTEGER_FIELDS = {
    "series timestamp": (read_series_csv, "series.csv", "timestamp,x\n{cell},0.5\n",
                         lambda t: t.timestamps[0]),
    "labels timestamp": (read_labels_csv, "labels.csv", "timestamp,label\n{cell},1\n", None),
    "labels flag": (read_labels_csv, "labels.csv", "timestamp,label\n0,{cell}\n",
                    lambda t: t.flags[0]),
    "scores timestamp": (read_scores, "scores.csv", "timestamp,score,lead_time\n{cell},0.5,1\n",
                         None),
    "detection timestamp": (read_detection, "detection.csv",
                            "timestamp,flag,lead_time\n{cell},1,1\n", None),
    "detection flag": (read_detection, "detection.csv", "timestamp,flag,lead_time\n0,{cell},\n",
                       lambda t: t.flags[0]),
    "segments start": (read_segments_csv, "segments.csv", "start,length\n{cell},2\n",
                       lambda segs: segs[0].start),
    "segments length": (read_segments_csv, "segments.csv", "start,length\n0,{cell}\n",
                        lambda segs: segs[0].length),
    "record window_id": (first_record, "records.csv", RECORD_HEADER + "{cell},0,m,1,0,0.5\n",
                         lambda ens: ens.window_id),
}
FLOAT_FIELDS = {
    "series value": (read_series_csv, "series.csv", "timestamp,x\n0,{cell}\n",
                     lambda t: t.values[0, 0]),
    "scores score": (read_scores, "scores.csv", "timestamp,score,lead_time\n0,{cell},1\n",
                     lambda t: t.scores[0]),
    "record value": (first_record, "records.csv", RECORD_HEADER + "0,0,m,1,0,{cell}\n",
                     lambda ens: ens.predictions[0, 0, 0]),
}
# float columns that take only a whole number >= 1 (their own value rule)
LEAD_FIELDS = {
    "scores lead_time": (read_scores, "scores.csv", "timestamp,score,lead_time\n0,0.5,{cell}\n",
                         lambda t: t.lead_times[0]),
    "detection lead_time": (read_detection, "detection.csv",
                            "timestamp,flag,lead_time\n0,1,{cell}\n", lambda t: t.lead_times[0]),
}


FIELDS = {**INTEGER_FIELDS, **FLOAT_FIELDS, **LEAD_FIELDS}
GRAMMAR_CASES = [
    *((field, cell, number) for field in INTEGER_FIELDS for cell, number, _ in SPELLINGS),
    *((field, cell, number) for field in FLOAT_FIELDS for cell, _, number in SPELLINGS
      if number is None or np.isfinite(number)),
    *((field, cell, number) for field in LEAD_FIELDS for cell, _, number in SPELLINGS
      if number is None or np.isfinite(number) and number >= 1 and number.is_integer()),
]


def refusal(name):
    """What a refused cell's error holds: its file, then its row or record line."""
    if name == "records.csv":
        return r"records.csv: line 2: bad forecast record \("
    return rf"{name}: row 2 " + ("is malformed$" if name == "segments.csv" else "")


class TestNumberGrammar:
    """One number grammar for every CSV poakit reads, numpy's ``loadtxt``'s:
    each spelling is accepted by every field of its kind or refused by all,
    and every refusal names the file and row (a record, its line)."""

    @pytest.mark.parametrize("field, cell, number", GRAMMAR_CASES,
                             ids=[f"{field}-{ascii(cell)}" for field, cell, _ in GRAMMAR_CASES])
    def test_one_grammar(self, tmp_path, field, cell, number):
        reader, name, text, value = FIELDS[field]
        path = tmp_path / name
        path.write_text(text.format(cell=cell), encoding="utf-8")
        (tmp_path / f"{name}.meta.json").write_text('{"threshold": 0.5}')
        if number is None:
            with pytest.raises(DataFormatError, match=refusal(name)):
                reader(path)
        else:
            table = reader(path)
            assert value is None or value(table) == number

    @pytest.mark.parametrize("text, message", [
        ("timestamp,label\n0,0\n1_0,1\n", "row 3 has non-integer timestamp '1_0'$"),
        ("timestamp,label\n0,\u0661\n", "row 2 has non-integer label '\u0661'$"),
        ("timestamp,x\n0,1\n1,1_0\n2,abc\n", "row 3 column 2 is not a number: '1_0'$"),
        ("timestamp,x\n0,1\n1,abc\n2,1_0\n", "row 3 column 2 is not a number: 'abc'$"),
        ("timestamp,x,y\n0,1,1\n1,1,1_0\n2,abc,1\n", "row 3 column 3 is not a number: '1_0'$"),
        ("timestamp,x\n0,1\n1_0,1\n", "row 3 has non-integer timestamp '1_0'$"),
    ], ids=["timestamp", "flag", "before-numpy-refusal", "after-numpy-refusal",
            "first-row-across-columns", "timestamp-before-break"])
    def test_refusal_names_the_first_bad_cell(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        reader = read_labels_csv if text.startswith("timestamp,label") else read_series_csv
        with pytest.raises(DataFormatError, match=rf"t\.csv: {message}"):
            reader(path)

    def test_padded_column_read_as_plain(self, tmp_path):
        # a non-ASCII space fails the whole-column check; each cell is then checked alone
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text("timestamp,x\n" + "".join(f"{i},{i / 7}\n" for i in range(1000)))
        padded.write_text("timestamp,x\n" + "".join(
            f"\xa0{i},{i / 7}\u3000\n" for i in range(1000)), encoding="utf-8")
        a, b = read_series_csv(plain), read_series_csv(padded)
        assert np.array_equal(a.timestamps, b.timestamps) and np.array_equal(a.values, b.values)


# sha256 of each writer's bytes on write_golden_fixture(), recorded before the
# writers went through one CSV row writer; the bytes must not change.
WRITER_SHA256 = {
    "detection.csv": "035d94a636c82d3a3ab90f2b3858e13429da6d7cc665580ec75618039e22dfaf",
    "detection.csv.meta.json": "1dc8e257bdd7b21e58e5531049267b4591fc0cff888055da3e17202db7231195",
    "labels.csv": "cb77d8cbe3810e9ed6499efe27ecdcb14083b8f510699809d26824f631cc4a8a",
    "scores.csv": "5f2152dc575a6a34848fca123f20ff84abf63343c7a3083340079dc5b69a358b",
    "segments.csv": "91b4f8e63d96d7fc7d5f9c5a4ac6e9767790b2817db0e0df74a0159688cb82f9",
    "series.csv": "71dceb46f05bc9cca4ca628b989ac5af8e1ebbb623a903299315bf07cc6bbda6",
    "theta_curve.csv": "b8568d47de14edc84f572177605e69d7aa75ad68f0f0ae579b2f7443e427f113",
}


def write_golden_fixture(root):
    """One file per writer: quoted names, -0.0, 1e22, 1/3, NaN gaps, a series from 1."""
    series = TimeSeries(
        np.arange(1, 5),
        np.array([[0.1, -0.0], [1e22, 1 / 3], [-2.5e-7, 12345.6789], [3.0, -1.0]]),
        ("a", "b,c"),
    )
    write_series_csv(root / "series.csv", series)
    write_labels_csv(root / "labels.csv", LabelSequence([0, 1, 1, 0]))
    write_scores(root / "scores.csv", ScoreSeries(
        np.array([np.nan, 0.5, -1 / 3, np.nan]), np.array([np.nan, 3.0, 1.0, np.nan])))
    detection = Detection(flags=np.array([0, 1, 1, 0], dtype=np.int8), threshold=1 / 3,
                          lead_times=np.array([np.nan, 2.0, 1.0, np.nan]))
    write_detection(root / "detection.csv", detection, meta={"grid": "4 quantiles"})
    write_segments_csv(root / "segments.csv", [Segment(3, 5), Segment(20, 1)])
    write_theta_curve_csv(root / "theta_curve.csv", [0.0, 0.5, 1.0], [1.0, 2 / 3, 0.0],
                          [0.5, 0.25, 0.0], [2 / 3, 1 / 3, 0.0])


class TestWriterGoldenBytes:
    def test_writer_bytes(self, tmp_path):
        write_golden_fixture(tmp_path)
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == WRITER_SHA256


finite = st.floats(allow_nan=False, allow_infinity=False)


def at_9g(values):
    """What a 9-significant-digit writer and a float parser give back."""
    return np.vectorize(lambda x: float(format(x, ".9g")), otypes=[np.float64])(values)


def with_gaps(draw, T, elements):
    """A length-T float array of ``elements`` with NaN gaps; also the defined mask."""
    defined = draw(hnp.arrays(bool, T))
    return np.where(defined, draw(hnp.arrays(np.float64, T, elements=elements)), np.nan), defined


@st.composite
def series_values(draw):
    T, c = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    # names are stripped on read, so none starts or ends with whitespace
    names = draw(st.lists(st.text(alphabet='ab,"#_é', max_size=4), min_size=c, max_size=c))
    start = draw(st.integers(0, 10**6))
    values = draw(hnp.arrays(np.float64, (T, c), elements=finite))
    return TimeSeries(np.arange(start, start + T), values, tuple(names))


@st.composite
def score_series(draw):
    T = draw(st.integers(1, 12))
    scores, defined = with_gaps(draw, T, finite)
    leads = np.where(defined, draw(hnp.arrays(np.float64, T, elements=st.integers(1, 10**6))),
                     np.nan)
    return ScoreSeries(scores, leads)


@st.composite
def detections(draw):
    T = draw(st.integers(1, 12))
    flags = draw(hnp.arrays(np.int8, T, elements=st.integers(0, 1)))
    leads, _ = with_gaps(draw, T, st.integers(1, 10**6))
    return Detection(flags=flags, threshold=draw(finite), lead_times=leads)


class TestRoundTripProperties:
    """write -> read gives the written values back at 9 significant digits."""

    @settings(max_examples=50, deadline=None)
    @given(series=series_values())
    def test_series(self, tmp_path_factory, series):
        path = tmp_path_factory.mktemp("series") / "s.csv"
        write_series_csv(path, series)
        back = read_series_csv(path)
        assert back.variable_names == series.variable_names
        assert back.timestamps.tolist() == series.timestamps.tolist()
        assert back.values.tobytes() == at_9g(series.values).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(flags=st.lists(st.integers(0, 1), min_size=1, max_size=20))
    def test_labels(self, tmp_path_factory, flags):
        path = tmp_path_factory.mktemp("labels") / "l.csv"
        write_labels_csv(path, LabelSequence(flags))
        assert read_labels_csv(path).flags.tolist() == flags

    @settings(max_examples=50, deadline=None)
    @given(scores=score_series())
    def test_scores(self, tmp_path_factory, scores):
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        write_scores(path, scores)
        back = read_scores(path)
        assert back.defined.tolist() == scores.defined.tolist()
        defined = scores.defined
        assert back.scores[defined].tobytes() == at_9g(scores.scores[defined]).tobytes()
        assert back.lead_times[defined].tolist() == scores.lead_times[defined].tolist()

    @settings(max_examples=50, deadline=None)
    @given(detection=detections())
    def test_detection_with_sidecar(self, tmp_path_factory, detection):
        path = tmp_path_factory.mktemp("detection") / "det.csv"
        write_detection(path, detection, meta={"metric": "point-f1"})
        back = read_detection(path)
        assert back.flags.tolist() == detection.flags.tolist()
        assert back.threshold == float(format(detection.threshold, ".9g"))
        assert np.array_equal(back.lead_times, detection.lead_times, equal_nan=True)

    @settings(max_examples=30, deadline=None)
    @given(segments=st.lists(st.builds(Segment, st.integers(0, 10**9), st.integers(1, 10**6)),
                             max_size=5))
    def test_segments(self, tmp_path_factory, segments):
        path = tmp_path_factory.mktemp("segments") / "segs.csv"
        write_segments_csv(path, segments)
        assert read_segments_csv(path) == segments
