"""File formats, dataset splitting, and report persistence.

Everything on disk is plain CSV / JSON / NDJSON. Floats are serialized with
9 significant digits, which is what the read/write round-trip guarantees are
stated against.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain
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


def _read_table(path, columns, rules):
    """Read a timestamped CSV table: a header row, int64 timestamps that start
    >= 0 and count up by one, then a column per (name, dtype) pair in
    ``columns`` (None: all float64, a series). ``rules(*values)`` gives the
    reader's own (bad-row mask, problem) pairs. A broken structure is named
    before the first bad value in file order. Returns the header, the
    timestamps and one array per value column."""
    path = Path(path)
    table = _load_csv(path, None if columns is None else len(columns) + 1)
    header, width = table[0], len(table[0])
    if columns is None:
        columns = [(f"column {j}", np.float64) for j in range(2, width + 1)]
    lengths = np.fromiter(map(len, table), np.int64, len(table))
    numbers = np.flatnonzero(lengths[1:]) + 2  # the file row of each non-blank row
    if not numbers.size:
        raise DataFormatError(f"{path}: no data rows")
    ragged = numbers[lengths[numbers - 1] != width]
    if ragged.size:
        raise DataFormatError(
            f"{path}: row {ragged[0]} has {lengths[ragged[0] - 1]} fields, expected {width}")
    fields = list(chain.from_iterable(table[1:]))  # a blank row adds none
    # (end, problem): the first bad row found so far; later checks see the rows before it
    timestamps, (end, problem) = _column(fields[::width], np.int64, "timestamp")
    # a negative timestamp is a break in any row: it catches a step from the int64 max that wraps
    breaks = np.flatnonzero((timestamps < 0) | np.r_[False, np.diff(timestamps) != 1])
    if breaks.size:
        end = breaks[0]
        before, ts = timestamps[end - 1], timestamps[end]
        problem = (f"has negative timestamp {ts}" if end == 0 else
                   f"duplicates timestamp {ts}" if ts == before else
                   f"breaks unit-step timestamps ({before} -> {ts})")
    if problem:
        raise DataFormatError(f"{path}: row {numbers[end]} {problem}")
    parsed = [_column(fields[j::width], dtype, name) for j, (name, dtype) in enumerate(columns, 1)]
    end, problem = min((refused for _, refused in parsed), key=lambda bad: bad[0])
    values = [array[:end] for array, _ in parsed]
    broken = [(np.argmax(bad), text) for bad, text in rules(*values) if bad.any()]
    end, problem = min([(end, problem), *broken], key=lambda bad: bad[0])
    if problem:
        raise DataFormatError(f"{path}: row {numbers[end]} {problem}")
    return header, timestamps, values


def _column(cells, dtype, name: str):
    """``cells`` parsed by numpy with Python's int()/float() grammar (an empty
    float cell is NaN), and the (index, problem) of the first refused cell;
    the array stops before it. (len(cells), None) if numpy refuses none."""
    if dtype is np.float64:
        cells = [cell or "nan" for cell in cells]
    try:
        return np.array(cells, dtype=dtype), (len(cells), None)
    except (ValueError, OverflowError):
        pass
    for i, cell in enumerate(cells):  # only to name the cell numpy refused
        try:
            np.array(cell, dtype=dtype)
        except (ValueError, OverflowError) as exc:
            problem = (f"{name} is not a number: {cell!r}" if dtype is np.float64 else
                       f"has {name} beyond the int64 range: {cell!r}"
                       if isinstance(exc, OverflowError) else f"has non-integer {name} {cell!r}")
            return np.array(cells[:i], dtype=dtype), (i, problem)


def _flag_rule(flags):
    return (flags != 0) & (flags != 1), "flag must be 0 or 1"


def _lead_rule(leads):
    """A defined lead time counts forecast steps: a whole number >= 1, as
    ``score_timeline`` writes it (step index + 1)."""
    whole = np.isfinite(leads) & (leads >= 1) & (leads == np.floor(leads))
    return ~np.isnan(leads) & ~whole, "lead_time must be a whole number >= 1"


def read_series_csv(path) -> TimeSeries:
    """Read a series CSV: header, timestamp column, then one column per
    variable; every value must be finite."""
    header, timestamps, values = _read_table(path, None, lambda *cols: [
        (~np.isfinite(col), f"column {j} is not finite") for j, col in enumerate(cols, 2)])
    return TimeSeries(timestamps, np.column_stack(values), tuple(h.strip() for h in header[1:]))


def write_series_csv(path, series: TimeSeries) -> None:
    names = series.variable_names or tuple(f"v{i}" for i in range(series.n_variables))
    write_csv(path, ("timestamp",) + tuple(names),
              ([int(ts)] + [_fmt(v) for v in row]
               for ts, row in zip(series.timestamps, series.values)))


def read_labels_csv(path) -> LabelSequence:
    """Read labels: header, timestamp column, one 0/1 flag column."""
    _, _, (flags,) = _read_table(path, [("label", np.int64)],
                                 lambda flags: [_flag_rule(flags)])
    return LabelSequence(flags)


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
    """Score CSV; ``score`` and ``lead_time`` are both empty or both set, a
    score is finite and a lead time a whole number >= 1."""
    _, _, (scores, leads) = _read_table(
        path, [("score", np.float64), ("lead_time", np.float64)], lambda scores, leads: [
            (np.isnan(scores) != np.isnan(leads),
             "lead_time must be defined exactly where score is"),
            (np.isinf(scores), "defined scores must be finite"), _lead_rule(leads)])
    return ScoreSeries(scores, leads)


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
    """Detection CSV; a defined lead time is a whole number >= 1, and the
    threshold, a finite JSON number, comes from the required `.meta.json`
    sidecar."""
    path = Path(path)
    _, _, (flags, leads) = _read_table(
        path, [("flag", np.int64), ("lead_time", np.float64)],
        lambda flags, leads: [_flag_rule(flags), _lead_rule(leads)])
    sidecar = Path(str(path) + ".meta.json")
    if not sidecar.exists():
        raise DataFormatError(f"{path}: missing sidecar {sidecar.name} with the threshold")
    try:
        threshold = json.loads(sidecar.read_text())["threshold"]
        if type(threshold) not in (int, float) or not math.isfinite(threshold):
            raise ValueError(threshold)  # NaN, Infinity, a bool or a string
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise DataFormatError(f"{sidecar}: no numeric 'threshold' ({exc!r})") from None
    return Detection(flags=flags, threshold=float(threshold), lead_times=leads)


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
    import platform  # imported here, like hashlib: only the manifest writers use it

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
