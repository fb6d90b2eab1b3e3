"""Query timing harness.

Queries are grouped by pattern length; each group reports its count,
average and maximum latency in microseconds, and whether the group was
cut off before finishing its time budget.
"""

import time
from collections import defaultdict


def bench_index(index, patterns, k, ranking="freq", cutoff_ms=5000.0):
    """Run every query, grouped by length. Returns one dict per length.

    A group that exhausts the cutoff stops early: `count` is the number
    of queries actually run there and `omitted` flags the truncation.
    """
    groups = defaultdict(list)
    for p in patterns:
        groups[len(p)].append(p)
    budget_ns = float(cutoff_ms) * 1e6
    rows = []
    for length in sorted(groups):
        spent = 0.0
        laps = []
        omitted = False
        for p in groups[length]:
            if spent > budget_ns:
                omitted = True
                break
            t0 = time.perf_counter_ns()
            index.query(p, k, ranking)
            lap = time.perf_counter_ns() - t0
            laps.append(lap)
            spent += lap
        rows.append(
            {
                "pattern_length": length,
                "count": len(laps),
                "avg_us": (sum(laps) / len(laps) / 1e3) if laps else 0.0,
                "max_us": (max(laps) / 1e3) if laps else 0.0,
                "omitted": omitted,
            }
        )
    return rows


def write_tsv(rows, f):
    f.write("pattern_length\tcount\tavg_us\tmax_us\tomitted\n")
    for r in rows:
        f.write(
            f"{r['pattern_length']}\t{r['count']}\t"
            f"{r['avg_us']:.2f}\t{r['max_us']:.2f}\t"
            f"{1 if r['omitted'] else 0}\n"
        )
