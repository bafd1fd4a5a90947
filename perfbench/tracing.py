"""Spans recorded around calls into the program, kept in memory.

A Tracer replaces a function at the module (or class) attribute through
which the program calls it with a wrapper that records one span per call:
name, start, end, parent span, the operation it belongs to, the growth of
the process's peak RSS across the call, and counts read from the call's
arguments, return value or exception. Nothing in the program changes; the
originals are put back by restore().
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field

# highest percentile first; the first one that leaves enough samples
# beyond it is the one reported
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = math.nan
    rss_growth_kb: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped callables; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Trace owner.attr under span `name`.

        counts(args, kwargs, result, exc) -> dict is called after each call
        with either the result or the exception raised; the exception is
        re-raised unchanged.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, counts, args, kwargs, None, exc)
                raise
            tracer._close(span, counts, args, kwargs, result, None)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, 0.0)
        # minus the peak at open; _close adds the peak at close
        span.rss_growth_kb = -peak_rss_kb()
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span, counts, args, kwargs, result, exc) -> None:
        span.end = time.perf_counter()
        span.rss_growth_kb += peak_rss_kb()
        self._stack.pop()
        if counts is not None:
            span.counts = counts(args, kwargs, result, exc)
        elif exc is not None:
            span.counts = {"failed": 1}

    def write(self, path) -> None:
        """All spans as JSON lines, each with its self time."""
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                row = asdict(span)
                row["self"] = own[span.id]
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [
            (max(lo, span.start), min(hi, span.end))
            for lo, hi in children.get(span.id, [])
            if hi > span.start and lo < span.end
        ]
        out[span.id] = span.duration - _covered(clipped)
    return out


def summarize(samples: list[float]) -> dict:
    """Median, the highest ladder percentile with MIN_BEYOND samples above
    it (nearest rank), and the sample count; percentile 0 when too few."""
    values = sorted(samples)
    n = len(values)
    out = {"median": 0.0, "tail": 0.0, "tail_pct": 0.0, "count": n}
    if not n:
        return out
    out["median"] = statistics.median(values)
    for pct in PERCENTILE_LADDER:
        rank = math.ceil(pct * n / 100.0)
        if n - rank >= MIN_BEYOND:
            out["tail"] = values[rank - 1]
            out["tail_pct"] = pct
            break
    return out
