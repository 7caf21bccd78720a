"""Telemetry wiring: sessions, specs, and the run collector.

The zero-cost-when-disabled contract lives here.  Components (caches,
the WPQ, controllers, recovery engines) call :func:`current_tracer`
once at construction; with no active session that returns the shared
:data:`~repro.telemetry.events.NULL_TRACER`, whose ``enabled`` flag is
False, so every emission site reduces to one attribute read.

Three layers:

* :class:`TelemetrySpec` — the *picklable request* for telemetry.  It
  rides inside the simulation payload shipped to worker processes
  (spawn workers inherit no parent globals), so a parallel sweep
  records the same events a serial one does.
* :class:`TelemetrySession` — one tracer, installable as the
  process-current session (a stack, so per-cell sessions can shadow a
  harness session).
* :class:`RunCollector` — the parent-side aggregator.  Simulation
  results come back carrying their event buffers; the collector merges
  them **in submission order** and labels each stream with its cell
  index, which is what makes ``--trace-out`` byte-identical across
  ``--jobs`` counts.  It also renders the live progress line and the
  per-run manifest.

Determinism rule: everything written to ``--trace-out`` and
``--metrics-out`` derives from simulated time and deterministic
counters.  Wall-clock values (executor timings, recovery phase
seconds) go only to the manifest and ``repro stats`` output, which are
never byte-compared.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.telemetry.events import (
    DEFAULT_BUFFER_LIMIT,
    EventTracer,
    NULL_TRACER,
    write_jsonl,
)

#: Metric-snapshot schema identifier (bump on breaking changes).
METRICS_SCHEMA = "repro.telemetry.metrics/1"

#: Manifest schema identifier.
MANIFEST_SCHEMA = "repro.telemetry.manifest/1"


@dataclass(frozen=True)
class TelemetrySpec:
    """What a run wants recorded — tiny, immutable, picklable.

    ``events`` turns the structured tracer on; ``detail`` additionally
    emits high-frequency events (cache hits, per-check integrity
    events); ``buffer_limit`` bounds each cell's event buffer.
    """

    events: bool = True
    detail: bool = False
    buffer_limit: int = DEFAULT_BUFFER_LIMIT

    def make_tracer(self) -> EventTracer:
        """A fresh tracer honouring this spec."""
        return EventTracer(
            enabled=self.events,
            detail=self.detail,
            buffer_limit=self.buffer_limit,
        )


class TelemetrySession:
    """One tracer, usually per simulation."""

    def __init__(self, spec: Optional[TelemetrySpec] = None) -> None:
        self.spec = spec if spec is not None else TelemetrySpec()
        self.tracer = self.spec.make_tracer()


#: Stack of installed sessions; the top is the process-current one.
_SESSIONS: List[TelemetrySession] = []

#: The spec a run configured for its sweeps (see
#: :func:`configure_telemetry`); shipped to workers by the executor.
_ACTIVE_SPEC: Optional[TelemetrySpec] = None

#: The parent-side collector of the current run, if any.
_COLLECTOR: Optional["RunCollector"] = None


def current_tracer() -> EventTracer:
    """The current session's tracer, or the shared disabled tracer.

    Call-time resolution: what the stack top is *right now*.  Emission
    sites that run once per trial (campaign hooks, crash handlers) use
    this.  Components that bind a tracer at construction must use
    :func:`live_tracer` instead — a snapshot of ``current_tracer()``
    taken before a session is installed stays :data:`NULL_TRACER`
    forever and silently emits nothing.
    """
    return _SESSIONS[-1].tracer if _SESSIONS else NULL_TRACER


class LiveTracer:
    """A tracer facade that always follows the installed session.

    Components (caches, the WPQ, controllers, recovery engines) keep
    one reference to the shared instance for their whole lifetime;
    session install/remove rebinds the target underneath them.  Both
    halves of the performance contract are preserved:

    * disabled — ``enabled`` and ``detail`` are plain slot attributes
      synchronized on every session push/pop, so the hot-path guard
      ``if self.tracer.enabled:`` stays a single attribute read;
    * enabled — ``emit``/``events``/``drain`` are the target's *bound
      methods*, installed at rebind time, so a forwarded call costs
      exactly what calling the session tracer directly would.

    The live session tracer itself is exposed as :attr:`target` for
    per-access clock writes (``tracer.target.now = ...``) — a plain
    attribute store, where a forwarding ``now`` property would pay a
    descriptor call on every simulated access.
    """

    __slots__ = ("enabled", "detail", "emit", "events", "drain", "target")

    def __init__(self) -> None:
        self._rebind(NULL_TRACER)

    def _rebind(self, target: EventTracer) -> None:
        self.target = target
        self.enabled = target.enabled
        self.detail = target.detail
        self.emit = target.emit
        self.events = target.events
        self.drain = target.drain

    # -- cold-path conveniences ----------------------------------------

    @property
    def now(self) -> float:
        return self.target.now

    @now.setter
    def now(self, value: float) -> None:
        self.target.now = value

    @property
    def dropped(self) -> int:
        return self.target.dropped

    @property
    def truncated(self) -> bool:
        return self.target.truncated

    def __len__(self) -> int:
        return len(self.target)

    def __repr__(self) -> str:
        return f"LiveTracer({self.target!r})"


#: The process-shared live facade handed out by :func:`live_tracer`.
_LIVE_TRACER = LiveTracer()


def live_tracer() -> LiveTracer:
    """The construction-time tracer binding: always the live session.

    Returns a process-shared facade that tracks the session stack, so a
    component built *before* telemetry is armed still emits once a
    session installs (the stale-binding bug the old construction-time
    ``current_tracer()`` snapshot had).
    """
    return _LIVE_TRACER


@contextmanager
def session(spec: Optional[TelemetrySpec] = None):
    """Install a fresh :class:`TelemetrySession` for the with-block."""
    active = TelemetrySession(spec)
    _SESSIONS.append(active)
    _LIVE_TRACER._rebind(active.tracer)
    try:
        yield active
    finally:
        _SESSIONS.pop()
        _LIVE_TRACER._rebind(
            _SESSIONS[-1].tracer if _SESSIONS else NULL_TRACER
        )


def configure_telemetry(
    spec: Optional[TelemetrySpec],
    progress: bool = False,
) -> Optional["RunCollector"]:
    """Arm telemetry for the sweeps of the current run.

    The executor reads :func:`active_spec` in the parent and ships it
    inside each cell payload; harvested results feed the returned
    :class:`RunCollector`.  Pass ``spec=None`` to disarm (tests).
    """
    global _ACTIVE_SPEC, _COLLECTOR
    _ACTIVE_SPEC = spec
    if spec is None and not progress:
        _COLLECTOR = None
        return None
    _COLLECTOR = RunCollector(progress=progress)
    return _COLLECTOR


def active_spec() -> Optional[TelemetrySpec]:
    """The spec configured for this run's sweeps, if any."""
    return _ACTIVE_SPEC


def run_collector() -> Optional["RunCollector"]:
    """The parent-side collector of the current run, if any."""
    return _COLLECTOR


class RunCollector:
    """Parent-side aggregation of per-cell telemetry, in cell order.

    ``absorb(result)`` must be called in submission order (the
    executor's ``run_simulations`` does) — the collector assigns each
    result the next cell index and tags its events with it, so the
    merged stream is independent of worker completion order.
    """

    def __init__(self, progress: bool = False) -> None:
        self.events: List[dict] = []
        #: Every absorbed result, in cell order — what
        #: :meth:`metrics_snapshot` is usually fed.
        self.results: List = []
        self.cells = 0
        self.total_events = 0
        self.dropped_events = 0
        self.truncated_cells: List[int] = []
        self.started = time.perf_counter()
        self.executor_stats: Dict[str, float] = {
            "sweeps": 0,
            "wall_seconds": 0.0,
            "max_jobs": 1,
        }
        self._progress = progress
        self._ticks = 0
        self._live_events = 0
        self._progress_open = False

    # -- ingestion ------------------------------------------------------

    def absorb(self, result) -> None:
        """Fold one simulation result's telemetry in, next cell index."""
        cell = self.cells
        self.cells += 1
        self.results.append(result)
        events = getattr(result, "events", None)
        if events:
            for event in events:
                event["cell"] = cell
            self.events.extend(events)
            self.total_events += len(events)
        summary = getattr(result, "telemetry", None)
        if summary:
            dropped = int(summary.get("dropped_events", 0))
            if dropped:
                self.dropped_events += dropped
                self.truncated_cells.append(cell)

    def note_sweep(self, wall_seconds: float, jobs: int) -> None:
        """Record one executor sweep's wall time and worker count."""
        self.executor_stats["sweeps"] += 1
        self.executor_stats["wall_seconds"] += wall_seconds
        self.executor_stats["max_jobs"] = max(
            self.executor_stats["max_jobs"], jobs
        )

    # -- live progress --------------------------------------------------

    def tick(self, label: str = "cells", events: int = 0) -> None:
        """Advance the live progress line by one completed work unit.

        ``events`` is display-only: results stream in completion order
        but are *absorbed* in submission order after the sweep, so the
        live line counts them separately from :attr:`total_events`.
        """
        self._ticks += 1
        self._live_events += events
        if not self._progress:
            return
        elapsed = time.perf_counter() - self.started
        seen = max(self.total_events, self._live_events)
        sys.stderr.write(
            f"\r[telemetry] {self._ticks} {label} done · "
            f"{seen:,} events · {elapsed:.1f}s "
        )
        sys.stderr.flush()
        self._progress_open = True

    def close_progress(self) -> None:
        """Terminate the progress line (if one was started)."""
        if self._progress_open:
            sys.stderr.write("\n")
            sys.stderr.flush()
            self._progress_open = False

    # -- outputs --------------------------------------------------------

    @property
    def truncated(self) -> bool:
        """Whether any cell's event buffer overflowed."""
        return bool(self.truncated_cells)

    def write_trace(self, path: str) -> int:
        """Write the merged event stream as JSONL; returns line count."""
        with open(path, "w") as stream:
            return write_jsonl(self.events, stream)

    def metrics_snapshot(self, results: List) -> dict:
        """The stable-schema metrics snapshot of a list of results.

        Per-cell stats plus cross-cell totals of the summable keys.
        Purely simulated quantities — byte-identical across ``--jobs``.
        """
        cells = []
        totals: Dict[str, float] = {}
        for result in results:
            stats = dict(result.stats)
            cells.append(
                {
                    "benchmark": result.benchmark,
                    "scheme": result.scheme.value,
                    "requests": result.requests,
                    "elapsed_ns": result.elapsed_ns,
                    "stats": stats,
                }
            )
            for key, value in stats.items():
                if _summable(key):
                    totals[key] = totals.get(key, 0) + value
        totals["cells"] = len(cells)
        totals["requests"] = sum(cell["requests"] for cell in cells)
        totals["elapsed_ns"] = sum(cell["elapsed_ns"] for cell in cells)
        return {"schema": METRICS_SCHEMA, "cells": cells, "totals": totals}

    def summary(self) -> dict:
        """The telemetry block of the run manifest."""
        return {
            "cells": self.cells,
            "events": self.total_events,
            "dropped_events": self.dropped_events,
            "truncated": self.truncated,
            "truncated_cells": list(self.truncated_cells),
            "executor": dict(self.executor_stats),
        }


def _summable(key: str) -> bool:
    """Whether summing a stat key across cells is meaningful."""
    for marker in (".mean", ".p50", ".p95", ".max", "rate", "fraction"):
        if marker in key:
            return False
    return True


def git_describe() -> str:
    """``git describe --always --dirty`` of the working tree, best effort."""
    try:
        output = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
        described = output.stdout.strip()
        return described if described else "unknown"
    except Exception:  # noqa: BLE001 — no git, no repo, sandboxed
        return "unknown"


def build_manifest(
    command: str,
    config_fingerprint: str,
    seed: Optional[int] = None,
    arguments: Optional[dict] = None,
    collector: Optional[RunCollector] = None,
    outputs: Optional[Dict[str, str]] = None,
    started: Optional[float] = None,
    result_cache: Optional[dict] = None,
) -> dict:
    """Assemble the per-run manifest written next to ``results.json``.

    Wall-clock values are welcome here — the manifest documents a run,
    it is never byte-compared between runs.  ``result_cache`` is the
    hit/miss/bytes-saved stats block of the run's content-addressed
    result cache, when one was configured.
    """
    return {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "config_fingerprint": config_fingerprint,
        "seed": seed,
        "arguments": dict(arguments or {}),
        "git": git_describe(),
        "wall_seconds": (
            time.perf_counter() - started if started is not None else None
        ),
        "outputs": dict(outputs or {}),
        "telemetry": collector.summary() if collector is not None else None,
        "result_cache": result_cache,
    }


def write_manifest(path: str, manifest: dict) -> None:
    """Write a manifest as stable, human-diffable JSON."""
    from repro.sim.checkpoint import atomic_write_json

    atomic_write_json(path, manifest)
