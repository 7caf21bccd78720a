"""Simulation orchestration: one trace through one or many schemes.

:class:`SimulationEngine` is the top-level convenience the experiments
and examples use: give it a base configuration, ask it to run a trace
under a scheme (or a list of schemes) and it builds the controller,
replays the trace, finalizes timing, and packages a
:class:`~repro.sim.results.SimulationResult` including cache metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.config import SchemeKind, SystemConfig
from repro.controller.base import SecureMemoryController
from repro.controller.bonsai import BonsaiController
from repro.controller.factory import build_controller
from repro.controller.sgx import SgxController
from repro.crypto.keys import ProcessorKeys
from repro.sim.parallel import ParallelSweepExecutor
from repro.sim.results import SchemeComparison, SimulationResult
from repro.telemetry.runtime import TelemetrySpec, session as telemetry_session
from repro.traces.replay import replay_batched
from repro.traces.trace import Trace


def _cache_stats(controller: SecureMemoryController) -> Dict[str, float]:
    """Flatten the controller's metadata-cache statistics."""
    flat: Dict[str, float] = {}
    if isinstance(controller, BonsaiController):
        for cache in (controller.counter_cache, controller.merkle_cache):
            cache.stats.merge_into(flat)
            flat[f"{cache.name}.hit_rate"] = cache.hit_rate
            flat[f"{cache.name}.clean_eviction_fraction"] = (
                cache.clean_eviction_fraction
            )
    elif isinstance(controller, SgxController):
        cache = controller.metadata_cache
        cache.stats.merge_into(flat)
        flat[f"{cache.name}.hit_rate"] = cache.hit_rate
        flat[f"{cache.name}.clean_eviction_fraction"] = (
            cache.clean_eviction_fraction
        )
    return flat


def run_simulation(
    config: SystemConfig,
    trace: Trace,
    keys: Optional[ProcessorKeys] = None,
    telemetry: Optional[TelemetrySpec] = None,
) -> SimulationResult:
    """Replay one trace on a freshly built system; return its result.

    With a :class:`~repro.telemetry.runtime.TelemetrySpec`, the cell
    runs under its own telemetry session (installed for exactly the
    controller build + replay, so components bind this cell's tracer)
    and the result carries the recorded events — the per-cell stream a
    parent-side :class:`~repro.telemetry.runtime.RunCollector` merges.

    Replay is batched whenever the controller supports it and scalar
    otherwise; both produce identical results.  A live telemetry
    session always replays scalar (the event stream carries per-access
    events in scalar order).
    """
    if telemetry is not None:
        with telemetry_session(telemetry) as active:
            result = run_simulation(config, trace, keys)
        tracer = active.tracer
        if tracer.enabled:
            result.events = tracer.drain()
            result.telemetry = {
                "events": len(result.events),
                "dropped_events": tracer.dropped,
            }
        if active.sampler is not None:
            result.samples = active.sampler.drain()
            if result.telemetry is None:
                result.telemetry = {}
            result.telemetry["samples"] = len(result.samples)
        return result
    controller = build_controller(config, keys=keys)
    replay_batched(controller, trace)
    elapsed = controller.finalize()
    stats = controller.collect_stats()
    stats.update(_cache_stats(controller))
    return SimulationResult(
        benchmark=trace.name,
        scheme=config.scheme,
        elapsed_ns=elapsed,
        requests=len(trace),
        stats=stats,
    )


class SimulationEngine:
    """Runs scheme sweeps over traces with a shared base configuration.

    An optional :class:`~repro.sim.parallel.ParallelSweepExecutor` fans
    the independent (trace, scheme) cells of :meth:`compare` and
    :meth:`sweep` over worker processes; results are reduced in
    submission order, so a parallel sweep is byte-identical to the
    serial one.
    """

    def __init__(
        self,
        base_config: SystemConfig,
        keys: Optional[ProcessorKeys] = None,
        executor: Optional["ParallelSweepExecutor"] = None,
    ) -> None:
        self.base_config = base_config
        self.keys = keys if keys is not None else ProcessorKeys()
        self.executor = (
            executor if executor is not None else ParallelSweepExecutor(1)
        )

    def run(self, trace: Trace, scheme: SchemeKind) -> SimulationResult:
        """Run one trace under one scheme."""
        config = self.base_config.with_scheme(scheme)
        return run_simulation(config, trace, self.keys)

    def compare(
        self,
        trace: Trace,
        schemes: Iterable[SchemeKind],
        baseline: SchemeKind = SchemeKind.WRITE_BACK,
    ) -> SchemeComparison:
        """Run one trace under several schemes; baseline-normalized."""
        return self.sweep([trace], list(schemes), baseline)[0]

    def sweep(
        self,
        traces: Iterable[Trace],
        schemes: List[SchemeKind],
        baseline: SchemeKind = SchemeKind.WRITE_BACK,
    ) -> List[SchemeComparison]:
        """The full figure-style grid: every trace under every scheme."""
        trace_list = list(traces)
        cells = [
            (self.base_config.with_scheme(scheme), trace)
            for trace in trace_list
            for scheme in schemes
        ]
        results = self.executor.run_simulations(cells, self.keys)
        comparisons: List[SchemeComparison] = []
        cursor = 0
        for trace in trace_list:
            comparison = SchemeComparison(
                benchmark=trace.name, baseline=baseline
            )
            for _scheme in schemes:
                comparison.add(results[cursor])
                cursor += 1
            comparisons.append(comparison)
        return comparisons
