"""Pure metric arithmetic shared by the benchmark and its self-test.

Nothing here imports the program under test, so the rules can be checked
on hand-made inputs (see selftest.py).
"""

from __future__ import annotations

import math


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. With n samples, n - ceil(p/100 * n) lie above."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile rank {p} outside (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


TIME_UNITS = frozenset({"s", "ms"})
RATE_UNITS = frozenset({"ops/s"})


def at_speed(values: dict, units, factor: float) -> dict:
    """`values` with each time multiplied and each rate divided by `factor`;
    counts, ratios and sizes stay as they are. `units` is (name, unit) pairs."""
    out = dict(values)
    for name, unit in units:
        if unit in TIME_UNITS:
            out[name] = values[name] * factor
        elif unit in RATE_UNITS:
            out[name] = values[name] / factor
    return out


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the p-th percentile rank."""
    return n - math.ceil(p / 100 * n)


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the base is empty (reported as n/a)."""
    return num / den if den else 0.0


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Per span: its duration minus the part of it that its child spans
    cover. Spans are columns; a root's parent is -1."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out = [end - start for start, end in zip(starts, ends)]
    for i, kids in children.items():
        out[i] -= covered(kids, starts[i], ends[i])
    return out


def nearest_ancestor(names, parents, wanted) -> list[int]:
    """For each span, the index of the closest strict ancestor whose name is
    in `wanted`, or -1. Parents precede their children."""
    wanted = frozenset(wanted)
    own = [-1] * len(names)   # closest span with a wanted name, self included
    out = [-1] * len(names)
    for i, (name, parent) in enumerate(zip(names, parents)):
        out[i] = own[parent] if parent >= 0 else -1
        own[i] = i if name in wanted else out[i]
    return out


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) over log(x): the scaling exponent."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else 0.0

