"""Host-speed sampling, to express host time at a fixed reference speed.

On a shared host the speed of one vCPU changes within seconds: a fixed
pure-Python loop runs at about 1x or about 1.7x its best time depending
on what the machine's other tenants do, and the mix of the two changes
from one minute to the next.  An iteration's wall time is that mix
times the program's own cost, so it spreads by 20-35% between runs of
the same code.

:class:`SpeedSampler` times a short fixed loop (:func:`probe`) from a
``SIGALRM`` handler every :data:`INTERVAL_S` while the measured code
runs.  :func:`at_reference_speed` removes the probes' own time and
rescales what is left to the speed at which one probe takes
:data:`REF_PROBE_S`:

    ref_s = (wall - sum(probes)) * mean(REF_PROBE_S / probe_i)

The probes are evenly spaced in wall time, so ``mean(REF_PROBE_S /
probe_i)`` is the average rate of progress relative to the reference
speed.  The loop is the benchmark's own code, so a change to the
simulator moves only the first factor.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between probes.
INTERVAL_S = 0.02
#: Loop count of one probe.
PROBE_LOOPS = 3000
#: One probe's time at the reference speed: the best time of the probe on
#: an otherwise idle 2-vCPU Xeon (2.1 GHz) virtual machine, Python 3.11.
REF_PROBE_S = 0.41e-3


def probe() -> None:
    """A fixed, short, interpreter-bound loop (dict updates, like the simulator's)."""
    counts: dict = {}
    for i in range(PROBE_LOOPS):
        counts[i & 1023] = counts.get(i & 1023, 0) + i


def timed_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager: probe the host's speed every ``INTERVAL_S``.

    ``samples`` holds the probe times taken while the block ran.  The
    previous ``SIGALRM`` handler and timer are restored on exit.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: total seconds spent in probes so far
        self.probe_s = 0.0

    def _handler(self, signum, frame) -> None:
        sample = timed_probe()
        self.samples.append(sample)
        self.probe_s += sample

    def clock(self) -> float:
        """``time.perf_counter`` with the probes' time left out, for spans."""
        return time.perf_counter() - self.probe_s

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference_speed(wall_s: float, samples: list[float]) -> float:
    """``wall_s`` (probes included) rescaled to the reference speed.

    A block shorter than one interval has no sample; one probe taken
    right after it stands in for the speed.
    """
    work_s = wall_s - sum(samples)
    rates = [REF_PROBE_S / s for s in samples or [timed_probe()]]
    return work_s * statistics.fmean(rates)


def timed(fn) -> tuple[float, float]:
    """Run ``fn()`` under a sampler; return (wall seconds, reference seconds)."""
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        fn()
        wall_s = time.perf_counter() - start
    return wall_s, at_reference_speed(wall_s, sampler.samples)
