"""Summary statistics and span arithmetic for the benchmark.

Everything here is pure and small so that test_bench_stats.py can pin
the definitions the benchmark reports under.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

def median(values) -> float:
    return float(statistics.median(values))


def tail(samples) -> float:
    """The upper quartile (p75) of the samples, as
    statistics.quantiles(samples, n=4) places it.

    A run holds 3 to about 20 operations. The rule "the highest
    percentile with at least ten samples beyond it" would pick, at those
    counts, a rank at or below the median (p37 of 16 samples), which no
    slowdown of the slowest operations can move. The maximum does move,
    but one stall of the machine sets it, and its spread between runs
    was wider than the metric's bound. The upper quartile is an upper
    tail at every count and as steady as the median.
    """
    if not samples:
        raise ValueError("no samples")
    if len(samples) == 1:
        return float(samples[0])
    return float(statistics.quantiles(samples, n=4)[2])


def spread(values) -> float:
    """Max minus min: how far apart repeats of the same operation fall."""
    return float(max(values) - min(values))


def pass_ratio(passed: int, attempted: int) -> float:
    """Units that met the correctness gate over units attempted.

    This is 1 - failed_ratio; it is reported the other way up so the
    metric is never zero when nothing fails.
    """
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= passed <= attempted:
        raise ValueError(f"passed = {passed} outside [0, {attempted}]")
    return passed / attempted


def rel_err(value: float, reference: float) -> float:
    """|value - reference| / |reference|; nan if value is not finite."""
    if reference == 0.0:
        raise ValueError("reference must be nonzero")
    return abs(value - reference) / abs(reference)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover. Children that run in parallel
    (sweep points in two workers) are counted once where they overlap.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        inner = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
        ]
        inner = [(a, b) for a, b in inner if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - covered(inner)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans) -> dict[str, float]:
    """Sum of span self times per layer (the span name's first part)."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[layer_of(s["name"])] += own[s["id"]]
    return dict(totals)


def span_totals(spans) -> dict[str, float]:
    """Total duration per span name."""
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"]] += s["end"] - s["start"]
    return dict(totals)
