"""Parallel fan-out of independent simulation cells.

Every cell of a figure grid — one (configuration, trace) pair — is an
independent, deterministic computation: the worker builds its own
controller from the picklable config, replays the picklable trace, and
returns a picklable :class:`~repro.sim.results.SimulationResult`.  The
same holds for fault-campaign trials.  :class:`ParallelSweepExecutor`
exploits that with a :class:`concurrent.futures.ProcessPoolExecutor`
on the ``spawn`` start method while keeping results **byte-identical**
to a serial run: results come back in submission order regardless of
completion order, and no randomness crosses process boundaries.

Failures stop the run.  Cells are deterministic, so retrying one would
only repeat its exception: a worker exception re-raises in the driver
with its original type, and a worker that dies (SIGKILL, OOM kill)
makes :meth:`ParallelSweepExecutor.map` raise
:class:`~concurrent.futures.process.BrokenProcessPool` within seconds.
Recovery is a re-run against the same result store (``--resume DIR``):
every cell and trial that finished before the failure is stored there
and skipped.

``jobs=1`` (the default everywhere) never touches multiprocessing, so
single-core environments and CI behave exactly as before.
"""

from __future__ import annotations

import os
import sys
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.config import SystemConfig
from repro.crypto.keys import ProcessorKeys
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace

T = TypeVar("T")
R = TypeVar("R")

#: One simulation cell: run this trace on a system built from this
#: config (with these keys).
SimCell = Tuple[SystemConfig, Trace]


def max_reasonable_jobs() -> int:
    """The clamp applied to absurd ``--jobs`` requests."""
    return max(32, 4 * (os.cpu_count() or 1))


def resolve_jobs(spec: Union[int, float, str, None]) -> int:
    """Turn a ``--jobs`` value into a worker count.

    ``None``/``"1"``/``1`` mean serial; ``"auto"`` (or ``0``) uses every
    available core; anything else must be a positive integer — floats
    are accepted only when integral (``2.0`` is 2, ``2.5`` is an
    error).  Requests beyond :func:`max_reasonable_jobs` are clamped
    with a warning: thousands of workers only thrash the scheduler.
    """
    if spec is None:
        return 1
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text == "auto":
            return max(os.cpu_count() or 1, 1)
        try:
            spec = int(text)
        except ValueError:
            raise ValueError(
                f"--jobs expects a positive integer or 'auto', got {spec!r}"
            ) from None
    if isinstance(spec, float):
        if not spec.is_integer():
            raise ValueError(
                f"--jobs must be a whole number of workers, got {spec!r}"
            )
        spec = int(spec)
    if spec == 0:
        return max(os.cpu_count() or 1, 1)
    if spec < 0:
        raise ValueError(f"--jobs must be >= 1, got {spec}")
    cap = max_reasonable_jobs()
    if spec > cap:
        print(
            f"warning: --jobs {spec} clamped to {cap} "
            f"(4x the {os.cpu_count() or 1} available cores; more workers "
            "only add scheduler thrash)",
            file=sys.stderr,
        )
        return cap
    return spec


def _simulate_cell(payload: Tuple):
    """Module-level worker: one cell per call (spawn/fork picklable).

    The payload is ``(config, trace, keys, telemetry_spec)`` — the spec
    (or None) must ride in the payload because spawn workers inherit no
    parent globals.
    """
    from repro.sim.engine import run_simulation

    config, trace, keys, telemetry = payload
    return run_simulation(config, trace, keys, telemetry=telemetry)


def _harvest(
    values: Iterable[R], on_result: Optional[Callable[[int, R], None]]
) -> List[R]:
    """Collect ``values`` in order, firing ``on_result`` for each."""
    results = []
    for index, value in enumerate(values):
        if on_result is not None:
            on_result(index, value)
        results.append(value)
    return results


class ParallelSweepExecutor:
    """Ordered, deterministic map over independent work.

    ``jobs`` is the worker-process count (or ``"auto"``).  ``1`` runs
    everything in-process with zero multiprocessing overhead.
    """

    #: Pools always use the spawn start method: workers import the code
    #: fresh instead of inheriting the parent's (possibly multi-GiB,
    #: possibly lock-holding) heap via fork.
    start_method = "spawn"

    def __init__(self, jobs: Union[int, str, None] = 1) -> None:
        self.jobs = resolve_jobs(jobs)

    @property
    def is_parallel(self) -> bool:
        return self.jobs > 1

    def map(
        self,
        func: Callable[[T], R],
        items: Sequence[T],
        on_result: Optional[Callable[[int, R], None]] = None,
    ) -> List[R]:
        """``[func(x) for x in items]``, fanned out when ``jobs > 1``.

        ``func`` must be a module-level callable and ``items`` must be
        picklable.  Results come back in submission order regardless of
        which worker finished first — the determinism guarantee every
        caller relies on.  ``on_result(index, result)`` fires once per
        cell, in index order, as results are harvested (the result
        store hooks in here).  The first failure propagates: a worker's
        exception with its original type, a dead worker as
        ``BrokenProcessPool``; unstarted cells are cancelled.
        """
        if not self.is_parallel or len(items) <= 1:
            return _harvest(map(func, items), on_result)
        # Imported here: every simulator import loads this module, and
        # the process-pool machinery is only needed for parallel runs.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(items)),
            mp_context=multiprocessing.get_context(self.start_method),
        )
        try:
            return _harvest(pool.map(func, items), on_result)
        finally:
            pool.shutdown(cancel_futures=True)

    # ------------------------------------------------------------------
    # Domain convenience
    # ------------------------------------------------------------------

    def run_simulations(
        self,
        cells: Sequence[SimCell],
        keys: Optional[ProcessorKeys] = None,
        on_result: Optional[Callable[[int, SimulationResult], None]] = None,
    ) -> List[SimulationResult]:
        """Run every (config, trace) cell; results in cell order.

        When the run configured telemetry (see
        :func:`repro.telemetry.runtime.configure_telemetry`), the spec
        is shipped inside each payload, the live progress line ticks as
        results are harvested, and the finished results are absorbed —
        in submission order — into the run's collector.

        When the run configured a result store (``--resume DIR``; see
        :func:`repro.sim.result_cache.configure_result_cache`), the
        store is consulted before any cell is submitted and populated
        as cold cells complete — all in this (parent) process, and all
        reduced in submission order, so warm output stays
        byte-identical to a cold run at any ``--jobs`` count.
        """
        from repro.sim.result_cache import (
            active_result_cache,
            simulation_cell_key,
        )
        from repro.telemetry.runtime import active_spec, run_collector

        spec = active_spec()
        collector = run_collector()
        cache = active_result_cache()

        cache_keys: Dict[int, str] = {}
        cached: Dict[int, SimulationResult] = {}
        if cache is not None:
            for index, (config, trace) in enumerate(cells):
                cell_key = simulation_cell_key(
                    cache, config, trace, keys, spec
                )
                cache_keys[index] = cell_key
                payload = cache.get(cell_key, kind="simulation-result")
                if payload is not None:
                    cached[index] = SimulationResult.from_dict(payload)

        def deliver(index: int, result: SimulationResult) -> None:
            if collector is not None:
                collector.tick(events=len(result.events or []))
            if on_result is not None:
                on_result(index, result)

        results: List[Optional[SimulationResult]] = [None] * len(cells)
        for index in sorted(cached):
            results[index] = cached[index]
            deliver(index, cached[index])

        started = time.perf_counter()
        cold = [index for index in range(len(cells)) if index not in cached]
        if cold:
            payloads: List[Tuple] = [
                (cells[index][0], cells[index][1], keys, spec)
                for index in cold
            ]

            def harvest(slot: int, result: SimulationResult) -> None:
                index = cold[slot]
                results[index] = result
                if cache is not None:
                    cache.put(
                        cache_keys[index],
                        result.to_dict(),
                        kind="simulation-result",
                    )
                deliver(index, result)

            self.map(_simulate_cell, payloads, on_result=harvest)
        if collector is not None:
            for result in results:
                collector.absorb(result)
            collector.note_sweep(
                wall_seconds=time.perf_counter() - started,
                jobs=self.jobs,
            )
        return results  # type: ignore[return-value]
