"""Host-speed calibration: turn measured seconds into reference seconds.

The benchmark runs on shared hosts whose speed drifts with their neighbours'
load, by tens of percent over seconds and minutes; CPU time drifts with wall
time, so neither clock alone says how fast the program is. A fixed
calibration loop that touches no closurelab code is timed many times while a
pass runs, and every timed interval is rescaled by how fast the loop ran
around it:

    reference seconds = measured seconds * REFERENCE_S / calibration seconds

That is the time the interval would have taken on a host where the loop
takes REFERENCE_S. A change that makes closurelab twice as fast halves it;
a host that slows everything down by the same share leaves it unchanged.

During a pass a SIGALRM timer runs one loop every INTERVAL_S on the main
thread, between byte codes, so the samples cover long items evenly and no
second thread or process runs. Time spent in the loop is subtracted from the
intervals it lands in.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 0.010
INTERVAL_S = 0.25
ROUNDS = 4000
TRIM = 0.1

_P = tuple((7 * i + 3) % 97 for i in range(97))


def calibration_loop() -> int:
    """Fixed pure-Python work shaped like closurelab's inner loops:
    permutation composition by tuple indexing, tuple hashing, dict updates.
    About 10 ms on a 2-core x86 host with Python 3.11."""
    p = _P
    seen: dict[tuple, int] = {}
    for r in range(ROUNDS):
        p = tuple([_P[i] for i in p])
        seen[p[:4]] = seen.get(p[:4], 0) + r
    return len(seen)


def time_loop() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """REFERENCE_S over the loop's time, averaged over samples evenly spaced
    in wall time (which is what weighting each stretch of the pass by its
    own speed asks for), with the highest and lowest TRIM share dropped."""
    ratios = sorted(REFERENCE_S / s for s in samples)
    cut = int(len(ratios) * TRIM)
    return statistics.fmean(ratios[cut : len(ratios) - cut])


class Sampler:
    """Times the calibration loop every INTERVAL_S between start() and stop().

    ``spent`` is the wall time taken by the loops so far; callers subtract
    its growth from any interval they time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.spent += seconds

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
