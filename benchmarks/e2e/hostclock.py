"""Host-speed-corrected timing for the end-to-end benchmark.

On a shared host, other tenants slow this process by up to 2x, and the
host switches between a fast and a slow state every second or so.  A
time measured once, or as the best of a few repeats, therefore says as
much about the host as about the simulator.  :class:`HostClock` measures
the host alongside the simulator instead: while it is armed, a
``SIGPROF`` interval timer interrupts the process every
:data:`SAMPLE_EVERY_S` of CPU time and runs :func:`probe`, a fixed
pure-Python loop that runs no simulator code.  A timed region is then
reported net of the probes that ran inside it, and with a scale factor,
:data:`REFERENCE_PROBE_NS` over the mean probe time in and next to the
region: the region's time times that factor reads as on a host where
the probe takes :data:`REFERENCE_PROBE_NS`.  A slowdown that stretches
the region and its probes alike cancels out.

CPU time is the calling thread's (``CLOCK_THREAD_CPUTIME_ID``): while a
process-wide CPU timer is armed, Linux serves the process CPU clock
from the timer's tick-granular accumulator, too coarse for a probe.

A fresh interpreter imports this module before it times the simulator's
import, so it imports only small standard-library modules.
"""

from __future__ import annotations

import bisect
import difflib
import random
import signal
import time
from dataclasses import dataclass
from typing import List, Tuple

#: CPU seconds between two probes while the clock is armed.
SAMPLE_EVERY_S = 0.02
#: Thread-CPU nanoseconds of one :func:`probe` on a quiet 2-vCPU Intel
#: Xeon VM under Python 3.11.7, the host of the README's numbers.
REFERENCE_PROBE_NS = 330_000
#: Probes run, unrecorded, when a clock is made: the first calls of a
#: process read up to 2x slow.
WARM_UP_PROBES = 20

#: The probe's inputs: fixed, independent of the seed.
_PROBE_A = "".join(random.Random(1).choice("abcdefgh") for _ in range(300))
_PROBE_B = "".join(random.Random(2).choice("abcdefgh") for _ in range(300))


def probe() -> None:
    """A fixed pure-Python loop (``difflib`` matching of two fixed
    strings): dict and list work like the simulator's, but none of its
    code, so no change to the simulator moves it."""
    for offset in range(4):
        difflib.SequenceMatcher(
            None, _PROBE_A[offset:], _PROBE_B, autojunk=False
        ).ratio()


@dataclass(frozen=True)
class Span:
    """A timed region, net of the probes that ran inside it."""

    cpu_ns: int
    wall_ns: int
    #: Reference probe time over the probe time measured at the region;
    #: 1.0 from an unarmed clock.
    scale: float = 1.0

    @property
    def scaled_cpu_ns(self) -> float:
        return self.cpu_ns * self.scale

    @property
    def scaled_wall_ns(self) -> float:
        return self.wall_ns * self.scale


class HostClock:
    """Times regions with :meth:`mark` and :meth:`span`; armed as a
    context manager, it also probes the host's speed."""

    def __init__(self) -> None:
        #: Per probe: thread-CPU time at its start, its CPU and wall time.
        self.stamps: List[int] = []
        self.probe_cpu_ns: List[int] = []
        self.probe_wall_ns: List[int] = []
        self.armed = False
        self._previous = None
        for _ in range(WARM_UP_PROBES):
            probe()

    def sample(self, _signum=None, _frame=None) -> None:
        """Run one probe and record it (also the ``SIGPROF`` handler)."""
        cpu = time.thread_time_ns()
        wall = time.perf_counter_ns()
        probe()
        self.probe_wall_ns.append(time.perf_counter_ns() - wall)
        self.probe_cpu_ns.append(time.thread_time_ns() - cpu)
        self.stamps.append(cpu)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.armed = True
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.armed = False

    @staticmethod
    def mark() -> Tuple[int, int]:
        """The start of a region: thread-CPU and wall nanoseconds."""
        return time.thread_time_ns(), time.perf_counter_ns()

    def span(self, start: Tuple[int, int]) -> Span:
        """The region from ``start`` to now.

        Its scale comes from the probes inside it plus the one just
        before and one run just after, so a region shorter than the
        sampling interval still gets the host's speed around it.
        """
        cpu, wall = time.thread_time_ns(), time.perf_counter_ns()
        if not self.armed:
            return Span(cpu - start[0], wall - start[1])
        self.sample()
        first = bisect.bisect_left(self.stamps, start[0])
        last = bisect.bisect_left(self.stamps, cpu)
        inside_cpu = sum(self.probe_cpu_ns[first:last])
        inside_wall = sum(self.probe_wall_ns[first:last])
        near = self.probe_cpu_ns[max(first - 1, 0):last + 1]
        return Span(
            cpu - start[0] - inside_cpu,
            wall - start[1] - inside_wall,
            REFERENCE_PROBE_NS * len(near) / sum(near),
        )
