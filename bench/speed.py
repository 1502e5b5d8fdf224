"""Speed correction: scale CPU-bound time to a fixed reference speed.

The host this benchmark runs on shares its cores with other tenants, and
the speed of a core flips between a fast and a slow state every 10 to
100 ms. A reference computation timed only before and after a call of
about a second cannot follow that, so the reference also runs inside the
call: a CPU-time interval timer (``ITIMER_PROF``) interrupts the process
every ``PROBE_INTERVAL_S`` of CPU time, and the signal handler times one
run of the reference. The reference is also timed a few times just
before and just after the call (the bracket), which is all it gets when
the call mostly waits and the timer rarely fires.

For one call, ``f = REF_NOMINAL_S / mean(reference times)`` and ``s`` is
the CPU time of the process and its children over the call's wall time,
capped at 1. The reported time is ``wall * (s * f + 1 - s)``: CPU-bound
time is scaled to reference speed, time spent waiting is left as it was.
The reference's own time is taken off both ``wall`` and CPU time first.

The reference and ``REF_NOMINAL_S`` are part of the benchmark's
definition: changing either changes every corrected figure.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Nominal time of one reference(): about its time on the 2-vCPU host the
# benchmark was set up on (Python 3.11.7, numpy 2.4.6), in a quiet spell.
# Fixed: corrected figures are in units of this reference.
REF_NOMINAL_S = 150e-6
PROBE_INTERVAL_S = 0.005
BRACKET_RUNS = 5

_REF_MATRIX = np.random.default_rng(20190303).standard_normal((8, 8)) * 0.3


def reference() -> float:
    """The fixed reference computation: small numpy operations and
    interpreter work, about the mix of one local SGD step."""
    v = np.ones(8)
    acc = 0.0
    for _ in range(20):
        v = np.tanh(_REF_MATRIX @ v + 0.1)
        acc += float(v.sum())
        acc += sum(k * k for k in range(12)) * 1e-9
    return acc


def time_reference(runs: int = BRACKET_RUNS) -> list[float]:
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        reference()
        out.append(time.perf_counter() - t0)
    return out


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Timing:
    """One timed call, before and after correction."""

    wall: float  # seconds, reference probes taken off
    cpu_share: float  # s
    reference: float  # mean reference time, seconds
    speed: float  # f
    corrected: float  # wall * (s * f + 1 - s)


def correct(wall: float, cpu: float, ref_times: list[float]) -> Timing:
    reference = statistics.fmean(ref_times)
    speed = REF_NOMINAL_S / reference
    share = min(1.0, max(0.0, cpu / wall)) if wall > 0 else 1.0
    return Timing(wall, share, reference, speed, wall * (share * speed + 1.0 - share))


class SpeedProbe:
    """Times the reference inside a call, on a CPU-time interval timer.

    Use as a context manager around the call; ``samples`` then holds the
    reference times measured inside it. Handlers run in the main thread.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def _on_tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def timed(fn, bracket_before: list[float]):
    """Run ``fn()`` under the probe and return ``(result, Timing, bracket_after)``.

    ``bracket_before`` is the reference timed just before the call (the
    previous call's ``bracket_after`` can be passed on).
    """
    probe = SpeedProbe()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    with probe:
        result = fn()
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    after = time_reference()
    spent = sum(probe.samples)
    timing = correct(wall - spent, cpu - spent, bracket_before + probe.samples + after)
    return result, timing, after
