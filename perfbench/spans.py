"""In-memory span recorder for the traced run.

A span has a name, a start, an end, the span that was open when it began,
and the top-level span it sits under (its stage). Spans stay in memory until
`dump` writes them out at the end of the run. Span names are
`<layer>.<function>` for calls into poakit's modules and `stage.<name>` for
a CLI stage; the set-up's stages sit under one `stage.setup` span.

Totals, call counts and input-size counts take `setup`: False (the default)
keeps only what ran under the timed stages, True only the set-up's.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

SETUP = "stage.setup"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()  # (stage, name) -> count
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = {"id": len(self.spans), "parent": parent and parent["id"],
                  "stage": parent["stage"] if parent else name,
                  "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def inside(self, name: str) -> bool:
        return any(s["name"] == name for s in self._open)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self._open[-1]["stage"] if self._open else None, name)] += n

    def counted(self, name: str, setup: bool = False) -> float:
        return sum(n for (stage, key), n in self.counts.items()
                   if key == name and (stage == SETUP) == setup)

    def _select(self, names, setup):
        return [s for s in self.spans if s["name"] in names and (s["stage"] == SETUP) == setup]

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def total(self, *names: str, setup: bool = False) -> float:
        return sum(self.duration(s) for s in self._select(names, setup))

    def calls(self, *names: str, setup: bool = False) -> int:
        return len(self._select(names, setup))

    def children_time(self, span: dict) -> float:
        # One thread: a span's children run one after another, never overlapping.
        return sum(self.duration(s) for s in self.spans if s["parent"] == span["id"])

    def self_time(self, *names: str, setup: bool = False) -> float:
        return sum(self.duration(s) - self.children_time(s) for s in self._select(names, setup))

    def coverage(self, name: str) -> float:
        """Share of the named spans' time that their child spans cover."""
        spans = [s for s in self.spans if s["name"] == name]
        total = sum(self.duration(s) for s in spans)
        return sum(self.children_time(s) for s in spans) / total if total else 0.0

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": [[stage, name, n] for (stage, name), n in self.counts.items()]},
                      fh)
