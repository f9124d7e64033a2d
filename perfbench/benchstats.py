"""Statistics and span helpers for perfbench/run.py.

Kept free of I/O so perfbench/tests/test_benchstats.py can check them on
hand-made inputs.
"""

import math
import statistics

# Percentiles tried, highest first, for the tail of a timing distribution.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile: (rank, the smallest value with pct% of the
    values at or below it)."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return k, sorted_values[k - 1]


def percentile(values, pct):
    """Nearest-rank percentile of unsorted values; the per-layer p50s use
    it so that they agree with tail_percentile."""
    return nearest_rank(sorted(values), pct)[1]


def tail_percentile(values):
    """The highest candidate percentile with at least ten samples beyond it.

    Returns (label, value). With fewer than twenty samples no percentile
    qualifies, and the maximum is reported under the label "max".
    """
    s = sorted(values)
    for pct in TAIL_CANDIDATES:
        k, v = nearest_rank(s, pct)
        if len(s) - k >= 10:
            return "p%g" % pct, v
    return "max", s[-1]


def covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
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


def self_times(spans):
    """Maps span id to its duration minus the part its children cover.

    Children are clipped to their parent's interval before the union is
    taken, so a child that outlives its parent cannot make self time
    negative.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for sid, s in by_id.items():
        lo, hi = s["start_ns"], s["end_ns"]
        kids = [(max(lo, c["start_ns"]), min(hi, c["end_ns"]))
                for c in children.get(sid, [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[sid] = (hi - lo) - covered(kids)
    return out


def self_time_ranking(spans):
    """[(name, total self ns, count)] sorted by total self time, largest
    first. A span's name includes its detail (e.g. gc.collect[minor])."""
    st = self_times(spans)
    totals = {}
    for s in spans:
        key = s["name"] + ("[%s]" % s["detail"] if s["detail"] else "")
        t, n = totals.get(key, (0, 0))
        totals[key] = (t + st[s["id"]], n + 1)
    return sorted(((k, t, n) for k, (t, n) in totals.items()),
                  key=lambda r: -r[1])
