"""Order statistics used by every timing the benchmark reports, and the
steal-aware choice of measurement windows."""

import bisect
import statistics

# Candidate tail percentiles, highest first.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p):
    """Nearest-rank percentile ``p`` (0..100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(xs) * p // 100))  # ceil(n * p / 100)
    return xs[int(rank) - 1]


def median(values):
    return statistics.median(values)


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(p, value)``; ``p`` is None when there are fewer than 20
    samples (then no percentile has ten samples beyond it and the maximum
    is returned).
    """
    n = len(values)
    for p in TAILS:
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:
            return p, percentile(values, p)
    return None, max(values)


def p99(values):
    """The 99th percentile, or None below 1000 samples (fewer than ten
    beyond it)."""
    return percentile(values, 99.0) if len(values) >= 1000 else None


def summary(values):
    """Median, tail percentile and sample count of a timing."""
    p, v = tail(values)
    return {"n": len(values), "p50": median(values), "tail_p": p, "tail": v}


def machine_ticks():
    """Machine-wide CPU time counters from /proc/stat: ``(steal, total)``.
    Steal is time the hypervisor ran other guests while this machine's
    virtual CPUs wanted to run."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def windows(marks, window_s):
    """Measurement windows from marks ``(time, steal ticks, gauge)`` taken
    about every ``window_s`` seconds (``gauge`` is for example a process's
    CPU seconds): ``[(start, end, steal_ticks, gauge_delta)]``. A last
    window shorter than half a window is folded into the one before it."""
    marks = list(marks)
    if len(marks) > 2 and marks[-1][0] - marks[-2][0] < window_s / 2:
        del marks[-2]
    return [(t0, t1, s1 - s0, g1 - g0)
            for (t0, s0, g0), (t1, s1, g1) in zip(marks, marks[1:])]


def quietest(windows, times, values, min_values, min_windows=1):
    """Picks the windows in which other guests took the least CPU: every
    window without a steal tick, then the next quietest (ties to the
    earlier window) until at least ``min_values`` values and
    ``min_windows`` windows are in. Returns
    the values of each picked window (``values`` taken at ``times``), in
    window order, and the picked windows."""
    starts = [w[0] for w in windows]
    per = [[] for _ in windows]
    for t, v in zip(times, values):
        j = bisect.bisect_right(starts, t) - 1
        if j >= 0 and t < windows[j][1]:
            per[j].append(v)
    picked, count = [], 0
    for i in sorted(range(len(windows)), key=lambda i: (windows[i][2], i)):
        if windows[i][2] > 0 and count >= min_values and len(picked) >= min_windows:
            break
        picked.append(i)
        count += len(per[i])
    picked.sort()
    return [per[i] for i in picked], [windows[i] for i in picked]
