"""Record-at-a-time reference reader for forecast record files.

Parses and validates one record at a time with plain dicts and sets, sharing
no code with the package's columnar ingest, so the package can be checked
against it on any file: both must accept the same files with the same
values, and reject the rest with the same message.
"""

import csv
import json
import os

import numpy as np

FIELDS = ("window_id", "origin", "member_id", "step", "variable", "value")


class RecordError(Exception):
    pass


def _csv_number(parse):
    """A CSV number is what numpy reads: after ``parse`` has had its say, a
    '_' digit separator or a non-ASCII digit, both of which int() and float()
    take, is refused."""
    def narrowed(text):
        number = parse(text)
        if "_" in text or any(ch.isdecimal() and not ch.isascii() for ch in text):
            raise ValueError(f"not an ASCII number without '_': {text!r}")
        return number
    return narrowed


def _integer(field):
    """JSON ints and strings under the CSV grammar only: a JSON float or bool
    is refused, after int() has had its say on inf and nan."""
    if isinstance(field, str):
        return _csv_number(int)(field)
    number = int(field)
    if type(field) in (float, bool):
        raise ValueError(f"not an integer: {field!r}")
    return number


def _real(field):
    """JSON numbers and strings under the CSV grammar; a bool is refused."""
    if isinstance(field, str):
        return _csv_number(float)(field)
    if type(field) is bool:
        raise ValueError(f"not a number: {field!r}")
    return float(field)


def _parse(raw, line_no):
    """One record, its fields converted in ``FIELDS`` order; once all convert,
    a member id that is not a string, then the first integer outside int64,
    if any, is refused."""
    try:
        record = (_integer(raw["window_id"]), _integer(raw["origin"]), raw["member_id"],
                  _integer(raw["step"]), _integer(raw["variable"]), _real(raw["value"]))
        if type(record[2]) is not str:  # only JSON gives a member that is not text
            raise TypeError(f"member_id is not a string: {record[2]!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise RecordError(f"line {line_no}: bad forecast record ({exc})") from exc
    for number in (record[0], record[1], record[3], record[4]):
        if not -2**63 <= number <= 2**63 - 1:
            raise RecordError(
                f"line {line_no}: bad forecast record (integer outside the int64 range: {number})")
    return record


def read_records(path):
    """[(window_id, origin, member_id, step, variable, value)] in file order."""
    path = str(path)
    records = []
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise RecordError(f"{path}: empty forecast file")
            missing = set(FIELDS) - set(reader.fieldnames)
            if missing:
                raise RecordError(f"{path}: header missing columns {sorted(missing)}")
            for name in FIELDS:
                if reader.fieldnames.count(name) > 1:
                    raise RecordError(f"{path}: header names column {name!r} twice")
            for raw in reader:  # line_num: the physical line the record ends on
                records.append(_parse(raw, reader.line_num))
    else:
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RecordError(f"line {line_no}: invalid JSON ({exc})") from exc
                records.append(_parse(raw, line_no))
    if not records:
        raise RecordError(f"{path}: no forecast records found")
    return records


def ref_ingest(path):
    """[(window_id, origin, member_ids, M x L_y x c values)] sorted by window id.

    A file of size s holds at most s // 10 records (none is shorter than
    "0,0,,1,0,0"), so a record whose cell makes the windows, members, steps
    and variables seen so far span more cells than that is refused."""
    room = os.path.getsize(path) // 10
    windows, members_seen, steps, variables = set(), set(), 0, 0
    by_window = {}
    first_seen = {}
    for rec_no, (wid, origin, member, step, var, value) in enumerate(read_records(path), 1):
        if step < 1 or var < 0:
            raise RecordError(
                f"record {rec_no}: step must be >= 1 and variable >= 0, got ({step}, {var})"
            )
        cell = (wid, member, step, var)
        if cell in first_seen:
            raise RecordError(
                f"record {rec_no}: duplicate cell window={wid} member={member!r} "
                f"step={step} variable={var} (first seen at record {first_seen[cell]})"
            )
        first_seen[cell] = rec_no
        entry = by_window.setdefault(wid, {"origin": origin, "cells": {}})
        if entry["origin"] != origin:
            raise RecordError(
                f"record {rec_no}: window {wid} has conflicting origins "
                f"{entry['origin']} and {origin}"
            )
        windows.add(wid)
        members_seen.add(member)
        steps, variables = max(steps, step), max(variables, var + 1)
        if len(windows) * len(members_seen) * steps * variables > room:
            raise RecordError(
                f"record {rec_no}: cell window={wid} member={member!r} step={step} "
                f"variable={var} would make the grid {len(windows)} windows x "
                f"{len(members_seen)} members x {steps} steps x {variables} variables, "
                f"more cells than the {room} records this file has room for"
            )
        entry["cells"][(member, step, var)] = value
    members = sorted({m for (_, m, _, _) in first_seen})
    L_y = max(step for (_, _, step, _) in first_seen)
    c = max(var for (_, _, _, var) in first_seen) + 1
    grid = [(m, s, v) for m in members for s in range(1, L_y + 1) for v in range(c)]
    out = []
    for wid in sorted(by_window):
        cells = by_window[wid]["cells"]
        if len(cells) != len(grid):
            missing = sorted(set(grid) - set(cells))[:3]
            raise RecordError(
                f"window {wid}: expected {len(grid)} cells "
                f"({len(members)} members x {L_y} steps x {c} variables), got "
                f"{len(cells)}; first missing: {missing}"
            )
        values = np.array([cells[cell] for cell in grid]).reshape(len(members), L_y, c)
        out.append((wid, by_window[wid]["origin"], tuple(members), values))
    return out
