"""Host-speed calibration for the gated timings of bench/run.py.

Standard library only, so that it can run while ``spinclust`` is imported.
"""

from __future__ import annotations

import signal
import time

# On a shared host the same code runs up to ~1.5x slower for seconds to
# minutes at a time, and every CLI step slows with it. A fixed pure-Python
# loop slows the same way (correlation 0.97-0.99 over half-minute windows),
# so a timer runs it every CAL_EVERY_S seconds while the workload runs, and
# the gated timings are scaled by CAL_REF_S over the mean loop time of the
# same interval: they read as seconds on a host where the loop takes
# CAL_REF_S.
CAL_LOOPS = 30_000
CAL_EVERY_S = 0.2
CAL_REF_S = 0.0024


class Calibrator:
    """Times the calibration loop from a SIGALRM handler while started.

    ``sample`` may also be called directly. ``clock`` is ``perf_counter``
    minus the time spent sampling, so intervals measured with it leave the
    calibration out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - t)
        self.spent += time.perf_counter() - t
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
