"""Spans, counters and summary statistics for the benchmark.

Spans are recorded only in the benchmark's own code, around each call
into a layer's public function; the program itself is not instrumented.
A :class:`Tracer` keeps every span in memory (name, start, end, parent
span, run id); the run writes them all out once, when it ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        record = {"id": sid, "name": name, "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (summed self time in s, call count).

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for s in self.spans:
            agg = out[s["name"]]
            agg[0] += s["end"] - s["start"] - child[s["id"]]
            agg[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]


def read_counters(relation: Any = None) -> dict[str, Any]:
    """The program's own counters, read in one place.

    Kernel counters come from ``repro.plan.COUNTERS``; the partition
    cache statistics from the relation's cache when one is given.
    """
    from repro.plan import COUNTERS

    snap = COUNTERS.snapshot()
    out: dict[str, Any] = {
        "pairs_examined": snap.pairs_examined,
        "pairs_total": snap.pairs_total,
        "candidates": dict(snap.candidates_by_strategy),
        "verified": dict(snap.verified_by_strategy),
    }
    if relation is not None:
        from repro.relation.partition_cache import cache_for

        stats = cache_for(relation).stats
        out["cache_hits"] = stats.hits
        out["cache_builds"] = stats.misses
    return out


def counter_delta(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in after.items():
        if isinstance(value, dict):
            old = before.get(key, {})
            out[key] = {k: v - old.get(k, 0) for k, v in value.items()
                        if v != old.get(k, 0)}
        else:
            out[key] = value - before.get(key, 0)
    return out


def tail(values: list[float], beyond: int = 10) -> tuple[float, float] | None:
    """(value, percentile) at the highest percentile with ``beyond``
    samples above it, or ``None`` when there are too few samples."""
    if len(values) <= beyond:
        return None
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)
