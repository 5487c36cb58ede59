"""Host-speed gauge: a fixed probe loop timed beside the workload.

The benchmark host is a few cores of a shared machine, and its speed for
interpreter code drifts by tens of percent over seconds to minutes; a whole
run can fall in a slow stretch.  A slower host is not a slower program, so
every timed stretch of the workload is also reported at a fixed host speed.

While a Gauge is active, a SIGALRM handler interrupts the workload every
PROBE_EVERY_S and times probe(), the same pure-Python loop every time.  The
workload's own time is measured net of the probes (Gauge.now(), the chunks
between probes), so raw times keep their meaning.  normalized() rescales a
stretch of workload time by the probe times measured within SMOOTH_S of it:
the time the stretch would take on a host where probe() takes
REFERENCE_PROBE_S, a fixed convention near its median time on the 2-vCPU
2.1 GHz Xeon the benchmark was tuned on.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter

PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 0.005
SMOOTH_S = 0.2
PROBE_ROUNDS = 260
PROBE_KEYS = tuple(f"k{i}" for i in range(64))


def probe() -> int:
    """Dict updates under string keys, integer arithmetic and list building,
    the kind of work the tagger and lemmatizer do."""
    table: dict[str, int] = {}
    acc = 0
    for r in range(PROBE_ROUNDS):
        for i, key in enumerate(PROBE_KEYS):
            table[key] = table.get(key, 0) + i * r % 7
            acc += len(key) + (i ^ r)
        acc += sum([x * 2 for x in range(50)])
    return acc


def probe_time(runs: int) -> float:
    """Mean time of ``runs`` back-to-back probes, in seconds."""
    start = perf_counter()
    for _ in range(runs):
        probe()
    return (perf_counter() - start) / runs


class Gauge:
    """Context manager.  Records ``chunks``, the workload's time between
    probes, and ``probes``, each probe's time, both as (middle, seconds)
    with middle on the perf_counter() clock.  With probing=False no probe
    runs and the whole phase is one chunk."""

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.chunks: list[tuple[float, float]] = []
        self.probes: list[tuple[float, float]] = []
        self.spent = 0.0
        self._resumed = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.chunks.append(((self._resumed + start) / 2, start - self._resumed))
        probe()
        end = perf_counter()
        self.probes.append(((start + end) / 2, end - start))
        self.spent += end - start
        self._resumed = end

    def __enter__(self) -> Gauge:
        if self.probing:
            signal.signal(signal.SIGALRM, self._tick)
        self._resumed = perf_counter()
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        end = perf_counter()
        self.chunks.append(((self._resumed + end) / 2, end - self._resumed))

    def now(self) -> float:
        """perf_counter() less the time spent probing so far."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now - spent

    def wall(self) -> float:
        """The workload's time in the phase, probes left out."""
        return sum(seconds for _, seconds in self.chunks)


def normalized(stretches: list[list[float]], probes: list[list[float]]) -> list[float]:
    """Each (middle, seconds) stretch rescaled to REFERENCE_PROBE_S by the
    mean time of the probes whose middles lie within SMOOTH_S of its own
    (the nearest probe when none does)."""
    if not probes:
        raise ValueError("no probe ran: the phase is shorter than PROBE_EVERY_S")
    middles = [m for m, _ in probes]
    sums = [0.0, *accumulate(s for _, s in probes)]
    out = []
    for middle, seconds in stretches:
        lo = bisect_left(middles, middle - SMOOTH_S)
        hi = bisect_right(middles, middle + SMOOTH_S)
        if lo == hi:
            nearest = min(range(len(middles)), key=lambda i: abs(middles[i] - middle))
            lo, hi = nearest, nearest + 1
        local = (sums[hi] - sums[lo]) / (hi - lo)
        out.append(seconds * REFERENCE_PROBE_S / local)
    return out
