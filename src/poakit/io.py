"""File formats, dataset splitting, and report persistence.

Everything on disk is plain CSV / JSON / NDJSON. Floats are serialized with
9 significant digits, which is what the read/write round-trip guarantees are
stated against.
"""

from __future__ import annotations

import csv
import json
import math
import platform
from pathlib import Path

import numpy as np

from poakit.core import (
    DataFormatError,
    LabelSequence,
    ScoreSeries,
    Segment,
    TimeSeries,
    ValidationError,
)
from poakit.detect import Detection

FLOAT_FMT = ".9g"


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_FMT)


def write_csv(path, header, rows) -> None:
    """Write a CSV table: the header row, then one line per row (CRLF line ends)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_csv(path, n_columns: int | None) -> list[list[str]]:
    """All rows of a CSV file whose header has exactly ``n_columns`` columns
    (at least 2 when None)."""
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh, strict=True))
    except csv.Error as exc:  # an unterminated quote, a field over csv's size limit
        raise DataFormatError(f"{path}: not a CSV table ({exc})") from None
    if not table:
        raise DataFormatError(f"{path}: empty file")
    width = len(table[0])
    if width < 2 if n_columns is None else width != n_columns:
        raise DataFormatError(
            f"{path}: header has {width} columns, expected {n_columns or '>= 2'}")
    return table


def _read_table(path, n_columns: int | None = None):
    """Read a timestamped CSV table: a header row, the timestamp column first.

    The header has exactly ``n_columns`` columns (at least 2 when None) and
    every non-blank row as many fields. Timestamps are integers that count up
    by exactly one from row to row. Returns the header, the first timestamp
    and ``(row number, other fields)`` for each non-blank row.
    """
    table = _load_csv(path, n_columns)
    header, width = table[0], len(table[0])
    rows = []
    first = previous = None
    for row_no, row in enumerate(table[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise DataFormatError(f"{path}: row {row_no} has {len(row)} fields, expected {width}")
        ts = _cell(path, row_no, int, row[0], "has non-integer timestamp {!r}")
        if previous is None:
            first = ts
        elif ts == previous:
            raise DataFormatError(f"{path}: row {row_no} duplicates timestamp {ts}")
        elif ts != previous + 1:
            raise DataFormatError(
                f"{path}: row {row_no} breaks unit-step timestamps ({previous} -> {ts})")
        previous = ts
        rows.append((row_no, row[1:]))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return header, first, rows


def _cell(path, row_no: int, parse, cell: str, problem: str):
    """``parse(cell)``; a ValueError names the row, ``problem`` gets the cell."""
    try:
        return parse(cell)
    except ValueError:
        raise DataFormatError(f"{path}: row {row_no} {problem.format(cell)}") from None


def _float_or_nan(cell: str) -> float:
    """An optional number: an empty cell is missing (NaN)."""
    return math.nan if cell == "" else float(cell)


def read_series_csv(path) -> TimeSeries:
    """Read a series CSV: header, timestamp column, then one column per variable."""
    path = Path(path)
    header, first, rows = _read_table(path)
    problems = [f"column {col} is not a number: {{!r}}" for col in range(2, len(header) + 1)]
    values = np.asarray([[_cell(path, row_no, float, cell, problem)
                          for cell, problem in zip(cells, problems)]
                         for row_no, cells in rows])
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, j = bad[0]
        raise DataFormatError(f"{path}: row {rows[i][0]} column {j + 2} is not finite")
    if first < 0:
        raise DataFormatError(f"{path}: negative timestamp")
    if first + len(values) - 1 > np.iinfo(np.int64).max:
        raise DataFormatError(f"{path}: timestamp beyond the int64 range")
    timestamps = np.arange(len(values), dtype=np.int64) + first
    return TimeSeries(timestamps, values, tuple(h.strip() for h in header[1:]))


def write_series_csv(path, series: TimeSeries) -> None:
    names = series.variable_names or tuple(f"v{i}" for i in range(series.n_variables))
    write_csv(path, ("timestamp",) + tuple(names),
              ([int(ts)] + [_fmt(v) for v in row]
               for ts, row in zip(series.timestamps, series.values)))


def read_labels_csv(path) -> LabelSequence:
    """Read labels: header, timestamp column, one 0/1 flag column."""
    path = Path(path)
    _, _, rows = _read_table(path, 2)
    flags = []
    for row_no, (cell,) in rows:
        flag = _cell(path, row_no, int, cell, "is not integer-valued")
        if flag not in (0, 1):
            raise DataFormatError(f"{path}: row {row_no} flag must be 0 or 1")
        flags.append(flag)
    return LabelSequence(np.asarray(flags, dtype=np.int8))


def write_labels_csv(path, labels: LabelSequence) -> None:
    write_csv(path, ("timestamp", "label"), enumerate(labels.flags.tolist()))


def chronological_split(series: TimeSeries, train_frac: float) -> tuple[TimeSeries, TimeSeries]:
    """First floor(train_frac * T) rows vs the rest; no shuffling."""
    if not 0.0 < train_frac < 1.0:
        raise ValidationError(f"train_frac must be in (0, 1), got {train_frac}")
    T = len(series)
    cut = int(math.floor(train_frac * T))
    if cut < 1 or cut >= T:
        raise ValidationError(
            f"split at {cut} leaves an empty side (T={T}, train_frac={train_frac})"
        )
    train = TimeSeries(series.timestamps[:cut], series.values[:cut], series.variable_names)
    valid = TimeSeries(series.timestamps[cut:], series.values[cut:], series.variable_names)
    return train, valid


def write_scores(path, scores: ScoreSeries) -> None:
    """Score CSV: timestamp, score (empty = missing), lead_time (empty = missing)."""
    write_csv(path, ("timestamp", "score", "lead_time"),
              ((i, "", "") if math.isnan(s) else (i, _fmt(s), int(lead))
               for i, (s, lead) in enumerate(zip(scores.scores.tolist(),
                                                 scores.lead_times.tolist()))))


def read_scores(path) -> ScoreSeries:
    """Score CSV; ``score`` and ``lead_time`` must be both empty or both set."""
    path = Path(path)
    _, _, rows = _read_table(path, 3)
    scores = [_cell(path, n, _float_or_nan, cells[0], "is malformed") for n, cells in rows]
    leads = [_cell(path, n, _float_or_nan, cells[1], "is malformed") for n, cells in rows]
    return ScoreSeries(np.asarray(scores), np.asarray(leads))


def write_detection(path, detection: Detection, meta: dict | None = None) -> None:
    """Detection CSV plus a `<path>.meta.json` sidecar with the threshold."""
    write_csv(path, ("timestamp", "flag", "lead_time"),
              ((i, flag, "" if math.isnan(lead) else int(lead))
               for i, (flag, lead) in enumerate(zip(detection.flags.tolist(),
                                                    detection.lead_times.tolist()))))
    sidecar = {"threshold": detection.threshold}
    if meta:
        sidecar.update(meta)
    write_json(str(path) + ".meta.json", sidecar)


def read_detection(path) -> Detection:
    """Detection CSV; the threshold comes from its required `.meta.json` sidecar."""
    path = Path(path)
    _, _, rows = _read_table(path, 3)
    flags = [_cell(path, n, int, cells[0], "flag is not an integer") for n, cells in rows]
    leads = [_cell(path, n, _float_or_nan, cells[1], "lead_time is not a number: {!r}")
             for n, cells in rows]
    sidecar = Path(str(path) + ".meta.json")
    if not sidecar.exists():
        raise DataFormatError(f"{path}: missing sidecar {sidecar.name} with the threshold")
    try:
        threshold = float(json.loads(sidecar.read_text())["threshold"])
    except (ValueError, TypeError, KeyError) as exc:
        raise DataFormatError(f"{sidecar}: no numeric 'threshold' ({exc!r})") from None
    return Detection(flags=np.asarray(flags, dtype=np.int8), threshold=threshold,
                     lead_times=np.asarray(leads))


SEGMENTS_HEADER = ("start", "length")


def write_segments_csv(path, segments: list[Segment]) -> None:
    write_csv(path, SEGMENTS_HEADER, ((seg.start, seg.length) for seg in segments))


def read_segments_csv(path) -> list[Segment]:
    """Read the ``start,length`` table ``write_segments_csv`` writes."""
    table = _load_csv(path, len(SEGMENTS_HEADER))
    if tuple(table[0]) != SEGMENTS_HEADER:
        raise DataFormatError(
            f"{path}: header is {','.join(table[0])!r}, expected {','.join(SEGMENTS_HEADER)!r}")
    out = []
    for row_no, row in enumerate(table[1:], start=2):
        if not row:
            continue
        try:
            start, length = map(int, row)  # a third field fails to unpack
            out.append(Segment(start, length))
        except ValueError:
            raise DataFormatError(f"{path}: row {row_no} is malformed") from None
    return out


def _jsonify(obj):
    """Make numpy scalars/arrays JSON-friendly, floats at 9 significant digits."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            return None
        return float(format(value, FLOAT_FMT))
    return obj


def write_json(path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonify(data), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_theta_curve_csv(path, thetas, ptar, ptap, f1) -> None:
    """Flat (theta, PTaR, PTaP, F1) table for plotting."""
    write_csv(path, ("theta", "ptar", "ptap", "f1"),
              ([_fmt(v) for v in row] for row in zip(thetas, ptar, ptap, f1)))


def file_sha256(path) -> str:
    # Imported here: hashlib loads OpenSSL (about 3 MB of RSS), and only the
    # stages that write a manifest hash anything.
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, config: dict, seed: int | None, files: list) -> None:
    """Run manifest: config, seed, versions, and output-file hashes."""
    from poakit import __version__

    entries = {}
    for f in files:
        f = Path(f)
        entries[f.name] = {"sha256": file_sha256(f), "bytes": f.stat().st_size}
    write_json(
        path,
        {
            "config": config,
            "seed": seed,
            "versions": {
                "poakit": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "files": entries,
        },
    )
