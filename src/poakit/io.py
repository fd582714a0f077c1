"""File formats, dataset splitting, and report persistence.

Everything on disk is plain CSV / JSON / NDJSON. Floats are serialized with
9 significant digits, which is what the read/write round-trip guarantees are
stated against. Files may use 0- or 1-based timestamps (``index_base``);
in memory everything is 0-based.
"""

from __future__ import annotations

import csv
import hashlib
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


def _parse_timestamp(path, row_no: int, cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise DataFormatError(
            f"{path}: row {row_no} has non-integer timestamp {cell!r}"
        ) from None


def _check_unit_step(path, row_no: int, previous: int | None, ts: int) -> None:
    """Timestamps must count up by exactly one from row to row."""
    if previous is None:
        return
    if ts == previous:
        raise DataFormatError(f"{path}: row {row_no} duplicates timestamp {ts}")
    if ts != previous + 1:
        raise DataFormatError(
            f"{path}: row {row_no} breaks unit-step timestamps ({previous} -> {ts})"
        )


def read_series_csv(path, index_base: int = 0) -> TimeSeries:
    """Read a series CSV: header, timestamp column, then one column per variable."""
    if index_base not in (0, 1):
        raise ValidationError("index_base must be 0 or 1")
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if len(header) < 2:
            raise DataFormatError(f"{path}: need a timestamp column plus >= 1 variable")
        names = tuple(h.strip() for h in header[1:])
        timestamps: list[int] = []
        rows: list[list[float]] = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}"
                )
            ts = _parse_timestamp(path, row_no, row[0])
            values = []
            for col, cell in enumerate(row[1:], start=2):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {row_no} column {col} is not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataFormatError(
                        f"{path}: row {row_no} column {col} is not finite"
                    )
                values.append(value)
            _check_unit_step(path, row_no, timestamps[-1] if timestamps else None, ts)
            timestamps.append(ts)
            rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    ts = np.asarray(timestamps, dtype=np.int64) - index_base
    if ts[0] < 0:
        raise DataFormatError(f"{path}: negative timestamp after index_base shift")
    return TimeSeries(ts, np.asarray(rows), names)


def write_series_csv(path, series: TimeSeries, index_base: int = 0) -> None:
    if index_base not in (0, 1):
        raise ValidationError("index_base must be 0 or 1")
    names = series.variable_names or tuple(
        f"v{i}" for i in range(series.n_variables)
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("timestamp",) + tuple(names))
        for ts, row in zip(series.timestamps, series.values):
            writer.writerow([int(ts) + index_base] + [_fmt(v) for v in row])


def read_labels_csv(path) -> LabelSequence:
    """Read labels: header, timestamp column, one 0/1 flag column."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if len(header) != 2:
            raise DataFormatError(f"{path}: expected exactly timestamp + flag columns")
        flags = []
        last_ts = None
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(f"{path}: row {row_no} has {len(row)} fields")
            try:
                ts = int(row[0])
                flag = int(row[1])
            except ValueError:
                raise DataFormatError(f"{path}: row {row_no} is not integer-valued") from None
            if flag not in (0, 1):
                raise DataFormatError(f"{path}: row {row_no} flag must be 0 or 1")
            if last_ts is not None and ts != last_ts + 1:
                raise DataFormatError(
                    f"{path}: row {row_no} breaks unit-step timestamps"
                )
            last_ts = ts
            flags.append(flag)
    if not flags:
        raise DataFormatError(f"{path}: no data rows")
    return LabelSequence(np.asarray(flags, dtype=np.int8))


def write_labels_csv(path, labels: LabelSequence, index_base: int = 0) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("timestamp", "label"))
        for i, flag in enumerate(labels.flags):
            writer.writerow((i + index_base, int(flag)))


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


def write_scores(path, scores: ScoreSeries, index_base: int = 0) -> None:
    """Score CSV: timestamp, score (empty = missing), lead_time (empty = missing)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("timestamp", "score", "lead_time"))
        for i in range(len(scores)):
            if np.isnan(scores.scores[i]):
                writer.writerow((i + index_base, "", ""))
            else:
                writer.writerow(
                    (i + index_base, _fmt(scores.scores[i]), int(scores.lead_times[i]))
                )


def read_scores(path) -> ScoreSeries:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        values, leads = [], []
        ts = None
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}: row {row_no} has {len(row)} fields")
            previous, ts = ts, _parse_timestamp(path, row_no, row[0])
            _check_unit_step(path, row_no, previous, ts)
            if row[1] == "":
                values.append(np.nan)
                leads.append(np.nan)
            else:
                try:
                    values.append(float(row[1]))
                    leads.append(float(row[2]))
                except ValueError:
                    raise DataFormatError(f"{path}: row {row_no} is malformed") from None
    if not values:
        raise DataFormatError(f"{path}: no data rows")
    return ScoreSeries(np.asarray(values), np.asarray(leads))


def write_detection(path, detection: Detection, meta: dict | None = None) -> None:
    """Detection CSV plus a `<path>.meta.json` sidecar with the threshold."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("timestamp", "flag", "lead_time"))
        for i in range(len(detection)):
            lead = detection.lead_times[i]
            writer.writerow(
                (i, int(detection.flags[i]), "" if np.isnan(lead) else int(lead))
            )
    sidecar = {"threshold": detection.threshold}
    if meta:
        sidecar.update(meta)
    write_json(str(path) + ".meta.json", sidecar)


def read_detection(path) -> Detection:
    """Detection CSV; the threshold comes from its required `.meta.json` sidecar."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        flags, leads = [], []
        ts = None
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}: row {row_no} has {len(row)} fields")
            previous, ts = ts, _parse_timestamp(path, row_no, row[0])
            _check_unit_step(path, row_no, previous, ts)
            try:
                flags.append(int(row[1]))
            except ValueError:
                raise DataFormatError(f"{path}: row {row_no} flag is not an integer") from None
            leads.append(np.nan if row[2] == "" else float(row[2]))
    if not flags:
        raise DataFormatError(f"{path}: no data rows")
    sidecar = Path(str(path) + ".meta.json")
    if not sidecar.exists():
        raise DataFormatError(f"{path}: missing sidecar {sidecar.name} with the threshold")
    try:
        threshold = float(json.loads(sidecar.read_text())["threshold"])
    except (ValueError, TypeError, KeyError) as exc:
        raise DataFormatError(f"{sidecar}: no numeric 'threshold' ({exc!r})") from None
    return Detection(
        flags=np.asarray(flags, dtype=np.int8),
        threshold=threshold,
        lead_times=np.asarray(leads),
    )


def write_segments_csv(path, segments: list[Segment]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("start", "length"))
        for seg in segments:
            writer.writerow((seg.start, seg.length))


def read_segments_csv(path) -> list[Segment]:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        out = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                out.append(Segment(int(row[0]), int(row[1])))
            except (ValueError, IndexError):
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("theta", "ptar", "ptap", "f1"))
        for row in zip(thetas, ptar, ptap, f1):
            writer.writerow([_fmt(v) for v in row])


def file_sha256(path) -> str:
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
