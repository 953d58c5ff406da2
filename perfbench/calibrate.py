"""How fast the box runs right now, and how much parallelism it gives.

:func:`effective_parallelism` runs the same fixed CPU loop in one process,
then in two processes released together by a barrier.
``2 * single / slowest pair member`` is 2.0 on two free cores and 1.0 when
the two processes share one.

:func:`yardstick_ms` times two fixed pure-Python kernels that do not touch
the program under test.  On a shared virtual machine the speed of the same
code drifts by up to 1.8x over minutes (the yardstick read 4.9-9.1 ms for
its loop kernel within one ten-run set).  The benchmark scales its
end-to-end times by the yardstick's reference reading over its reading in
the run, so that the drift does not read as a change in the program.  Work
that keeps the server busy is scaled by the yardstick run back to back; the
reads of an open loop that leaves it mostly idle, by the yardstick run in
short bursts between idle gaps.
"""

from __future__ import annotations

import functools
import heapq
import random
import statistics
import subprocess
import sys
import time

_LOOP = 400_000


#: One burner: signals that it is up, waits for the release line, runs the
#: loop and prints how long it took.
_BURNER = f"""
import sys, time
print("up", flush=True)
sys.stdin.readline()
started = time.perf_counter()
total = 0
for value in range({_LOOP}):
    total += value * value
print(time.perf_counter() - started, flush=True)
"""


def _run(processes: int) -> list:
    """Seconds each of ``processes`` burners took, released together.

    Plain child processes rather than ``multiprocessing``: its semaphores
    start a resource-tracker process that outlives the benchmark.  Every
    burner is waited for, or killed and waited for, before this returns.
    """
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", _BURNER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(processes)
    ]
    try:
        for worker in workers:
            if worker.stdout.readline().strip() != "up":
                raise RuntimeError("a calibration burner did not start")
        for worker in workers:
            worker.stdin.write("go\n")
            worker.stdin.flush()
        times = [float(worker.stdout.readline()) for worker in workers]
        for worker in workers:
            worker.wait(timeout=60)
        return times
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
            worker.stdin.close()
            worker.stdout.close()


def effective_parallelism() -> float:
    single = min(_run(1)[0] for _ in range(2))
    pair = max(_run(2))
    return 2.0 * single / pair


#: The yardstick's readings on the reference machine (Xeon, 2.1 GHz, 2 vCPUs,
#: Python 3.11) in its fast state: scaled times are times on that machine.
YARDSTICK_REFERENCE_MS = {"sustained": 12.5, "bursts": 0.37}
_TABLE_SIZE = 200_000
_LOOKUPS = 50_000
#: Bursts: each kernel cut to about a millisecond, started after an idle gap
#: as long as the reads-hot arrival gap, so the yardstick runs at the duty
#: cycle of an open loop that keeps the gateway mostly idle.  A machine that
#: shares its cores slows such bursts less than busy stretches: between the
#: slow and the fast state, the reads-hot latencies moved 1.39x while the
#: sustained yardstick moved 1.78x.
_BURST_SHARE = 0.03
_BURST_GAP_S = 0.005


def _loop(size: int) -> None:
    total = 0
    for value in range(size):
        total += value * value


@functools.lru_cache(maxsize=None)
def _lookups():
    rng = random.Random(5)
    table = {key: (key * 2654435761) % 1000003 for key in range(_TABLE_SIZE)}
    keys = [rng.randrange(_TABLE_SIZE) for _ in range(_LOOKUPS)]

    def lookups(size: int) -> None:
        heap: list = []
        for key in keys[:size]:
            heapq.heappush(heap, (table[key], key))
            if len(heap) > 64:
                heapq.heappop(heap)

    return lookups


def yardstick_ms(mode: str) -> float:
    """Geometric mean of the median times of an arithmetic loop and of
    dictionary lookups feeding a heap, in milliseconds.

    The two kernels load the processor the way interpreted code does, and
    the second walks a table larger than the caches, like the query engine.
    ``mode`` is ``"sustained"`` (back to back, for a closed loop that keeps
    the server busy) or ``"bursts"`` (see ``_BURST_SHARE``).
    """
    bursts = mode == "bursts"
    share = _BURST_SHARE if bursts else 1.0
    repeats = 30 if bursts else 5
    medians = []
    for kernel, size in ((_loop, 100_000), (_lookups(), _LOOKUPS)):
        times = []
        for _ in range(repeats):
            if bursts:
                time.sleep(_BURST_GAP_S)
            started = time.perf_counter()
            kernel(int(size * share))
            times.append(time.perf_counter() - started)
        medians.append(statistics.median(times) * 1000.0)
    return statistics.geometric_mean(medians)
