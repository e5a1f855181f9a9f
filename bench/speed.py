"""Host-speed probe, sampled inside each job's child process.

On a shared virtual machine the host runs the guest at one of two speeds,
about 2x apart, switching within seconds, and the share of slow time drifts
over minutes (see README.md).  A job's wall time follows that share, so runs
of unchanged code differ by up to 1.9x.  The probe removes it: every
INTERVAL_S a timer signal interrupts the job and times one pass of a fixed
pure-Python loop.  Those samples say how fast the host ran during the job,
and the job's time is scaled to what it would have been at the nominal
speed:

    work = (time - probe time) * mean(NOMINAL_S / sample)

mean(NOMINAL_S / sample) is the job's average speed relative to nominal,
since the samples are spread evenly over wall time.  The loop is the
benchmark's own code, so no change to the package moves it.  The probe
corrects for how fast the host runs the job, not for time the job does not
run at all: a job that waits for the CPU still reads slower.
"""

from __future__ import annotations

import signal
import time
from typing import List, Sequence

INTERVAL_S = 0.01
# One pass of the loop on the host the numbers in RESULTS.md come from, at
# its fast speed.  It only fixes the unit: normalized times are seconds at
# that speed.
NOMINAL_S = 0.00016
_LOOP = 1200


def _work() -> int:
    total = 0
    table = {}
    for i in range(_LOOP):
        total += (i * 2654435761) % 1000003
        table[i & 63] = total
    return total + len(table)


class Probe:
    """Samples the loop's duration on a SIGALRM timer until stopped."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _work()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed(samples: Sequence[float]) -> float:
    """Average speed relative to nominal over the sampled span; 1.0 when
    there are no samples."""
    if not samples:
        return 1.0
    return sum(NOMINAL_S / s for s in samples) / len(samples)


def normalize(seconds: float, samples: Sequence[float]) -> float:
    """A time measured over the span the samples cover, without the probe's
    own time, at the nominal speed."""
    return (seconds - sum(samples)) * speed(samples)
