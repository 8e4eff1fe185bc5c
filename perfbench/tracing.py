"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (id, name, start, end, parent id, job id). Spans are kept in a
list while the run goes and written out once, as JSON lines, when it ends.
A layer is the first dotted component of a span name (``graph.load`` is in
layer ``graph``); its self time is the time its spans cover minus the part
covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []

    def add(self, name: str, job: str, start: float, end: float,
            parent: int | None = None) -> int:
        """Record a span timed by the caller; returns its id."""
        sid = len(self.spans)
        self.spans.append((sid, name, start, end, parent, job))
        return sid

    def call(self, name: str, job: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a top-level span and return its result."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(name, job, start, time.perf_counter())

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "job")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans) -> dict[str, float]:
    """Self time per layer: span durations minus their children's durations."""
    child = defaultdict(float)
    for _, _, s, e, parent, _ in spans:
        if parent is not None:
            child[parent] += e - s
    out: dict[str, float] = defaultdict(float)
    for sid, name, s, e, _, _ in spans:
        out[name.split(".", 1)[0]] += (e - s) - child[sid]
    return dict(out)
