"""Recovery flight recorder: phase-profiled recovery breakdowns.

Anubis's headline claim is recovery *time*, and a single scalar hides
where that time goes.  A :class:`FlightRecorder` wraps each phase of a
recovery engine's run (shadow scan, counter repair, tree rebuild,
verification, ...) and records, per phase:

* **analytic simulated time** — the delta of the engine's own
  step-cost estimate (the paper's 100ns/step model) across the phase,
  so the per-phase nanoseconds *partition the engine's analytic total
  exactly*;
* **wall-clock seconds** — how long the Python model actually took,
  from :func:`time.perf_counter` (manifests and ``repro stats`` only,
  never byte-compared output).

Each completed phase also emits a ``recovery.phase`` event when a
tracer is live, which the Chrome exporter renders as a complete ("X")
slice on the engine's recovery lane.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List

from repro.telemetry.runtime import live_tracer


class FlightRecorder:
    """Per-phase recovery profiler for one engine run.

    ``estimate_ns`` is the engine's running analytic cost estimate —
    called on phase entry and exit, so a phase's analytic duration is
    exactly the work the engine accrued inside it and the phase list
    sums to the engine's final estimate.
    """

    def __init__(
        self, engine: str, estimate_ns: Callable[[], float]
    ) -> None:
        self.engine = engine
        self._estimate_ns = estimate_ns
        #: Completed phases, in execution order.  Each record carries
        #: ``phase``, ``analytic_ns``, and ``wall_seconds``.
        self.phases: List[dict] = []

    @contextmanager
    def phase(self, name: str):
        """Record one recovery phase spanning the with-block."""
        before_ns = self._estimate_ns()
        wall_start = time.perf_counter()
        yield
        after_ns = self._estimate_ns()
        record = {
            "phase": name,
            "analytic_ns": after_ns - before_ns,
            "wall_seconds": time.perf_counter() - wall_start,
        }
        self.phases.append(record)
        tracer = live_tracer()
        if tracer.enabled:
            tracer.emit(
                "recovery.phase",
                ns=after_ns,
                engine=self.engine,
                phase=name,
                dur_ns=record["analytic_ns"],
            )

    def breakdown_ns(self) -> Dict[str, float]:
        """Phase name -> analytic nanoseconds, in execution order."""
        totals: Dict[str, float] = {}
        for record in self.phases:
            totals[record["phase"]] = (
                totals.get(record["phase"], 0.0) + record["analytic_ns"]
            )
        return totals

    def total_ns(self) -> float:
        """Sum of the recorded phases' analytic nanoseconds."""
        return sum(record["analytic_ns"] for record in self.phases)


def breakdown_seconds(phases: List[dict]) -> Dict[str, float]:
    """Phase name -> analytic seconds for a recorded phase list."""
    totals: Dict[str, float] = {}
    for record in phases:
        totals[record["phase"]] = (
            totals.get(record["phase"], 0.0)
            + record["analytic_ns"] / 1e9
        )
    return totals
