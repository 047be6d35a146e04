"""Host clocks of the observatory: the package's only wall-clock reads.

Everything else in the package times through :data:`clock` /
:func:`cpu_clock`, so the determinism linter's RL02 suppressions live in
this one place.
"""

import gc
import heapq
import resource
import time

#: host wall clock in seconds (monotonic, sub-microsecond).
clock = time.perf_counter  # repro-lint: disable=RL02 -- a benchmark measures host wall time
_process_time = time.process_time  # repro-lint: disable=RL02 -- and host CPU time


def cpu_clock() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return _process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """Peak resident set size of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: what :func:`calibration_s` reads on the quiet reference host (the sandbox
#: this benchmark was built on).  A fixed constant, so that a timing divided
#: by ``calibration_s() / CALIBRATION_REF_S`` reads as seconds on that host.
CALIBRATION_REF_S = 0.0400


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host is right now.

    Half arithmetic, half allocation / heap / dict churn.  When a neighbour
    slows the host the simulator slows by more than pure arithmetic and by
    less than pure churn (1.54x against 1.41x and 1.64x in one recorded
    five-minute slow period); the even blend tracked it within 3 %.  The loop
    shares no code with the program under test, and runs with the garbage
    collector off (a collection's cost depends on how many objects the
    process holds, which would tie the calibration to the workload), so the
    ratio of a body's time to the calibrations run right before and after it
    moves only when the program's cost moves.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        heap: list = []
        table = {}
        for i in range(24_000):
            entry = [float(i * 7919 % 24_000), i, None, (i, i + 1), 0]
            heapq.heappush(heap, entry)
            table[i % 4096] = entry
            if i & 1:
                heapq.heappop(heap)
        return clock() - started
    finally:
        if collecting:
            gc.enable()
