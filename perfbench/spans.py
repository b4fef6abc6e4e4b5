"""In-memory span recorder for traced benchmark operations.

A span is (id, name, start, end, parent, op): name is `layer.function`,
start and end are time.perf_counter() readings (CLOCK_MONOTONIC, so
spans from worker processes line up with run.py's), parent is the
id of the enclosing span and op the operation all spans of one
benchmark operation share. Ids carry the process id so spans recorded
in several processes can be merged. Counts recorded at the same
boundaries go into `counts`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, op: str, parent: str | None = None):
        self.op = op
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[str | None] = [parent]
        self._next = 0

    def new_id(self) -> str:
        self._next += 1
        return f"{os.getpid()}-{id(self):x}-{self._next}"

    @contextmanager
    def span(self, name: str):
        sid = self.new_id()
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start,
                               "end": end, "parent": parent, "op": self.op})

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def merge(self, dump: dict) -> None:
        self.spans.extend(dump["spans"])
        for name, value in dump["counts"].items():
            self.count(name, value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


class NullTracer:
    """Stands in for Tracer on untraced operations: records nothing."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float) -> None:
        pass
