"""Speed gauge: samples how fast the CPU that runs the jobs is, while
they run, so that job times can be read at one fixed speed.

On a shared host a CPU's speed changes from one second to the next with
the other tenants' load, by up to about 1.8 times, and a job's wall time
follows it; two runs of the same code a minute apart can differ by a
quarter. The gauge is a thread of the benchmark process, pinned to the
same CPU as the jobs (``pin_to_one_cpu`` before anything starts; child
processes inherit the pinning). Every ``period`` seconds it wakes, runs
a fixed pure-Python chunk and records the chunk's thread CPU time ``c``.
With ``REFERENCE_CHUNK_S`` a fixed constant, ``REFERENCE_CHUNK_S / c``
is the CPU's speed at that moment, and a window of wall time ``W`` holds

    scaled(W) = (W - gauge CPU time in W) * mean(REFERENCE_CHUNK_S / c)

seconds of work at the reference speed: the host's drift cancels, while
a faster program still reads faster. The gauge takes 3 to 5 % of the
CPU; its own CPU time in a window is taken out before scaling.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

# Thread CPU time of one chunk, near its time on a quiet core of the
# 2-core Xeon VM the benchmark was built on. It only sets the unit of
# scaled time.
REFERENCE_CHUNK_S = 0.0025
# Larger than a core's own caches, so that reading it goes to the shared
# cache and memory, which other tenants load too.
BUFFER_BYTES = 2 << 20


def _chunk(buffer: bytearray) -> int:
    """Fixed work shaped like the package's: a recursive walk over a small
    expression tree of tuples (dict lookups, float arithmetic), building
    and sorting a dict of small objects, and scattered reads over a
    buffer larger than a core's own caches. The host's load slows these
    three unequally; together they slow about as much as the jobs do.
    About 3 to 5 ms with a buffer of ``BUFFER_BYTES``."""
    env = {"x": 0.5, "y": -1.25, "z": 2.0}
    tree = ("+", ("*", "x", ("-", "y", "z")), ("*", ("+", "x", "y"), ("-", "z", "x")))

    def walk(node):
        if isinstance(node, str):
            return env[node]
        op, a, b = node
        a, b = walk(a), walk(b)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        return a * b

    acc = 0.0
    for i in range(400):
        env["x"] = i * 1e-3
        acc += walk(tree)
    table = {(i, 7 * i): [float(i), str(i)] for i in range(800)}
    order = sorted(table.items(), key=lambda kv: -kv[1][0])
    touched = 0
    for i in range(0, len(buffer), 512):
        buffer[i] = 1
        touched += buffer[(i * 2654435761) % len(buffer)]
    return int(acc) + len(order) + touched


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so every thread and process it starts
    later, to the lowest CPU it may use; return that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedGauge:
    """``with SpeedGauge() as gauge:`` samples while the block runs;
    ``gauge.scale(start, end)`` reads a ``time.perf_counter`` window at
    the reference speed. Scale windows after the block has ended, so
    that the samples after each window exist."""

    def __init__(self, period: float = 0.1, min_span: float = 1.0):
        self.period = period
        # Shortest stretch of time the speed of a window is taken over.
        self.min_span = min_span
        # (perf_counter at start, thread CPU seconds) of each chunk, in order.
        self.samples: list[tuple[float, float]] = []
        self._buffer = bytearray(BUFFER_BYTES)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-gauge", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            start = time.perf_counter()
            cpu = time.thread_time()
            _chunk(self._buffer)
            self.samples.append((start, time.thread_time() - cpu))

    def __enter__(self) -> "SpeedGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Seconds of work at the reference speed in the window [start, end].

        The speed is the mean over the chunks that start inside the
        window, widened about its middle to at least ``min_span``: the
        host's speed holds for about a second at a time, and a few chunks
        read it better than one."""
        starts = [s[0] for s in self.samples]
        widen = max(0.0, self.min_span - (end - start)) / 2
        lo = bisect.bisect_left(starts, start - widen)
        hi = bisect.bisect_right(starts, end + widen)
        near = self.samples[lo:hi]
        if not near:
            raise RuntimeError("the speed gauge took no sample near the window")
        speed = sum(REFERENCE_CHUNK_S / c for _, c in near) / len(near)
        busy = sum(c for t, c in near if start <= t <= end)
        return (end - start - busy) * speed
