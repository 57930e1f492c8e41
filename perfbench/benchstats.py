"""Statistics and count-identity helpers of the hmr benchmark.

Pure functions, no I/O: run.py folds trial samples with them and
spread.py judges run-to-run spread with them.  test_benchstats.py
covers every function here.
"""

import statistics

KIB = 1 << 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, q):
    """Percentile q in [0, 100] with linear interpolation between the
    closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be within [0, 100]")
    v = sorted(values)
    pos = q / 100.0 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def quartiles(values):
    """(Q1, median, Q3) exactly as statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median: the benchmark's run-to-run spread of one metric."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("spread of a metric whose median is 0")
    return (q3 - q1) / abs(q2)


def counts_repeat(exacts):
    """Exact counts must repeat bit for bit across trials.  Returns None
    when every dict equals the first, else a message naming the first
    differing key."""
    if not exacts:
        return None
    first = exacts[0]
    for i, e in enumerate(exacts[1:], start=1):
        for k in sorted(set(first) | set(e)):
            if first.get(k) != e.get(k):
                return "exact count %s differs: trial 0 has %s, trial %d has %s" % (
                    k, first.get(k), i, e.get(k))
    return None


def finegrain_identity(exact, block_bytes=KIB):
    """finegrain_tasks: every task's two distinct deps are fetched and
    evicted once, so fetches = evicts = 2 x tasks and bytes follow."""
    tasks = exact["tasks_run"]
    want = {
        "fetches": 2 * tasks,
        "evicts": 2 * tasks,
        "fetch_bytes": 2 * tasks * block_bytes,
        "evict_bytes": 2 * tasks * block_bytes,
        "dedup_hits": 0,
    }
    return _identity("finegrain_tasks", exact, want)


def reference_match(exact, reference):
    """des_matmul: every simulated statistic equals the recorded
    reference.  Returns None on a match, else a message."""
    for k in sorted(reference):
        if exact.get(k) != reference[k]:
            return "des_matmul: %s = %s, reference %s" % (k, exact.get(k), reference[k])
    return None


def _identity(name, exact, want):
    for k in sorted(want):
        if exact.get(k) != want[k]:
            return "%s: %s = %s, workload implies %s" % (name, k, exact.get(k), want[k])
    return None
