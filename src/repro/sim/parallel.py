"""Supervised parallel fan-out of independent simulation cells.

Every cell of a figure grid — one (configuration, trace) pair — is an
independent, deterministic computation: the worker builds its own
controller from the picklable config, replays the picklable trace, and
returns a picklable :class:`~repro.sim.results.SimulationResult`.  The
same holds for fault-campaign trials.  :class:`ParallelSweepExecutor`
exploits that with a *supervised* :mod:`multiprocessing` pool while
keeping results **byte-identical** to a serial run: results are
reduced into a slot per submission index regardless of completion
order, retries re-run the same deterministic cell, and no randomness
crosses process boundaries.

Supervision (all optional, all off by default for ``jobs=1``):

* **spawn workers** — pools use ``multiprocessing.get_context("spawn")``
  so no parent heap state leaks into workers, and ``maxtasksperchild``
  recycles workers before long campaigns can accumulate memory;
* **per-cell timeout** — a cell that exceeds ``timeout`` seconds raises
  :class:`~repro.errors.WorkerTimeoutError` internally, the wedged pool
  is torn down (killing the hung worker), and the cell is retried.  The
  timeout is also what bounds *abrupt worker death* (SIGKILL/OOM): a
  killed worker's task never completes, so its slot times out and is
  retried in a fresh pool — set a timeout on unattended campaigns;
* **capped exponential backoff** — ``backoff * 2**(round-1)`` seconds
  between retry rounds, capped at :data:`BACKOFF_CAP`;
* **graceful degradation** — a cell that keeps failing with a crash or
  an application exception is finally re-run *in-process*, where a real
  exception propagates with its original type and a flaky environment
  failure gets one last clean shot.  A cell that keeps *timing out* is
  the one case that aborts (raises :class:`WorkerTimeoutError`):
  re-running a hanging cell in-process would hang the driver too.

``jobs=1`` (the default everywhere) never touches multiprocessing, so
single-core environments and CI behave exactly as before.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.config import SystemConfig
from repro.crypto.keys import ProcessorKeys
from repro.errors import ValidationError, WorkerCrashError, WorkerTimeoutError
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace

T = TypeVar("T")
R = TypeVar("R")

#: One simulation cell: run this trace on a system built from this
#: config (with these keys).
SimCell = Tuple[SystemConfig, Trace]

#: Ceiling for exponential retry backoff, seconds.
BACKOFF_CAP = 5.0

#: How long a supervised wait sleeps between wakeups, seconds.  Keeps
#: the driver responsive to signals without busy-waiting.
_POLL_SECONDS = 0.05

_UNSET = object()

#: Process-global executor defaults, overridable from the CLI (see
#: :func:`configure_executor_defaults`) so ``--timeout``/``--retries``
#: reach executors constructed deep inside experiment modules.
_EXECUTOR_DEFAULTS: Dict[str, object] = {
    "timeout": None,
    "retries": 2,
    "backoff": 0.5,
    "maxtasksperchild": 16,
}


def configure_executor_defaults(**overrides: object) -> Dict[str, object]:
    """Set process-wide defaults for supervision parameters.

    Recognized keys: ``timeout`` (seconds or None), ``retries``,
    ``backoff``, ``maxtasksperchild``.  Entry points call this from
    their CLI flags; executors created afterwards with unspecified
    parameters pick the new defaults up.  Returns the replaced values,
    so ``configure_executor_defaults(**previous)`` restores them.
    """
    previous: Dict[str, object] = {}
    for key, value in overrides.items():
        if key not in _EXECUTOR_DEFAULTS:
            raise ValueError(f"unknown executor default {key!r}")
        previous[key] = _EXECUTOR_DEFAULTS[key]
        _EXECUTOR_DEFAULTS[key] = value
    return previous


def validate_supervision(
    timeout: Union[float, None] = None,
    retries: Union[int, None] = None,
    backoff: Union[float, None] = None,
) -> None:
    """Reject unusable supervision parameters with a typed error.

    Called at executor construction and when the ``--timeout`` and
    ``--retries`` flags are parsed, so a bad value stops the run before
    any work starts instead of crashing a worker hours later.  ``None``
    values are skipped (meaning "not specified").
    """
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise ValidationError(
                f"timeout must be a number of seconds, got {timeout!r}"
            ) from None
        if timeout <= 0:
            raise ValidationError(
                f"timeout must be positive, got {timeout}"
            )
    if retries is not None:
        try:
            valid = float(retries).is_integer()
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ValidationError(
                f"retries must be an integer, got {retries!r}"
            )
        if int(float(retries)) < 0:
            raise ValidationError(
                f"retries must be >= 0, got {retries}"
            )
    if backoff is not None:
        try:
            backoff = float(backoff)
        except (TypeError, ValueError):
            raise ValidationError(
                f"backoff must be a number of seconds, got {backoff!r}"
            ) from None
        if backoff < 0:
            raise ValidationError(
                f"backoff must be >= 0, got {backoff}"
            )


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


class ParallelSweepExecutor:
    """Ordered, deterministic, *supervised* map over independent work.

    Parameters
    ----------
    jobs:
        Worker-process count (or ``"auto"``).  ``1`` runs everything
        in-process with zero multiprocessing overhead (and therefore no
        supervision — a serial cell can always be interrupted with
        Ctrl-C).
    timeout:
        Per-cell result timeout in seconds; ``None`` (default) waits
        forever.  A timeout both bounds hung cells and converts a
        SIGKILL'd/OOM-killed worker's lost task into a retry instead of
        a forever-hang.
    retries:
        How many failed attempts a cell gets *beyond* the first before
        the executor degrades: crashes and application exceptions are
        re-run in-process (so real errors propagate with their original
        type), persistent timeouts raise
        :class:`~repro.errors.WorkerTimeoutError`.
    backoff:
        Base delay between retry rounds, doubled each round and capped
        at :data:`BACKOFF_CAP`.  ``0`` disables sleeping (tests).
    maxtasksperchild:
        Cells a worker executes before being replaced by a fresh
        process — bounds slow memory growth over multi-hour campaigns.
    """

    #: Pools always use the spawn start method: workers import the code
    #: fresh instead of inheriting the parent's (possibly multi-GiB,
    #: possibly lock-holding) heap via fork.
    start_method = "spawn"

    def __init__(
        self,
        jobs: Union[int, str, None] = 1,
        timeout: Union[float, None, object] = _UNSET,
        retries: Union[int, object] = _UNSET,
        backoff: Union[float, object] = _UNSET,
        maxtasksperchild: Union[int, None, object] = _UNSET,
    ) -> None:
        self.jobs = resolve_jobs(jobs)

        def pick(name: str, value):
            return _EXECUTOR_DEFAULTS[name] if value is _UNSET else value

        picked_timeout = pick("timeout", timeout)
        picked_retries = pick("retries", retries)
        picked_backoff = pick("backoff", backoff)
        validate_supervision(
            timeout=picked_timeout,
            retries=picked_retries,
            backoff=picked_backoff,
        )
        self.timeout = (
            None if picked_timeout is None else float(picked_timeout)
        )
        self.retries = int(float(picked_retries))
        self.backoff = float(picked_backoff)
        self.maxtasksperchild = pick("maxtasksperchild", maxtasksperchild)
        #: Diagnostics: (cell index, error repr) per failed attempt.
        self.retry_log: List[Tuple[int, str]] = []

    @property
    def is_parallel(self) -> bool:
        return self.jobs > 1

    # ------------------------------------------------------------------
    # The supervised map
    # ------------------------------------------------------------------

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
        cell as its result is harvested (the result store hooks in
        here); indices may arrive out of order across retry rounds, but
        every index fires exactly once.
        """
        if not self.is_parallel or len(items) <= 1:
            results = []
            for index, item in enumerate(items):
                value = func(item)
                if on_result is not None:
                    on_result(index, value)
                results.append(value)
            return results
        return self._supervised_map(func, items, on_result)

    def _supervised_map(self, func, items, on_result) -> List[R]:
        results: List[Optional[R]] = [None] * len(items)
        done = [False] * len(items)
        attempts = [0] * len(items)
        pending = list(range(len(items)))
        round_number = 0

        def harvest(index: int, value) -> None:
            results[index] = value
            done[index] = True
            if on_result is not None:
                on_result(index, value)

        while pending:
            failures = self._dispatch_round(func, items, pending, harvest)
            retry: List[int] = []
            for index in pending:
                if done[index]:
                    continue
                error = failures.get(index)
                if error is None:
                    # Round aborted before this cell ran: free retry.
                    retry.append(index)
                    continue
                attempts[index] += 1
                self.retry_log.append((index, repr(error)))
                if attempts[index] <= self.retries:
                    retry.append(index)
                elif isinstance(error, WorkerTimeoutError):
                    # A cell that hangs every time would hang the
                    # driver in-process too — abort loudly instead.
                    raise error
                else:
                    # Crash or application exception: degrade to
                    # in-process serial execution.  A deterministic
                    # exception re-raises here with its original type;
                    # an environment-induced crash gets a clean shot.
                    harvest(index, func(items[index]))
            pending = [index for index in retry if not done[index]]
            if pending:
                round_number += 1
                if self.backoff > 0:
                    time.sleep(
                        min(self.backoff * 2 ** (round_number - 1), BACKOFF_CAP)
                    )
        return results  # type: ignore[return-value]

    def _dispatch_round(self, func, items, indices, harvest):
        """One pool round over ``indices``; returns index -> failure.

        Cells are submitted one task each and harvested in submission
        order.  An application exception is recorded and harvesting
        continues; a timeout wedges the round (the hung worker blocks
        its queue), so already-finished results are drained, everything
        else is left for the next round, and the pool is torn down —
        ``terminate()`` kills hung workers where a graceful ``close()``
        would wait forever.
        """
        context = multiprocessing.get_context(self.start_method)
        failures: Dict[int, BaseException] = {}
        pool = context.Pool(
            processes=min(self.jobs, len(indices)),
            maxtasksperchild=self.maxtasksperchild,
        )
        try:
            worker_pids = self._worker_pids(pool)
            handles = [
                (index, pool.apply_async(func, (items[index],)))
                for index in indices
            ]
            timed_out = False
            for index, handle in handles:
                if timed_out:
                    # Drain whatever already finished; do not wait.
                    if handle.ready():
                        try:
                            harvest(index, handle.get(0))
                        except Exception as exc:  # noqa: BLE001
                            failures[index] = exc
                    continue
                try:
                    value = self._wait(handle)
                except multiprocessing.TimeoutError:
                    failures[index] = self._classify_timeout(
                        index, pool, worker_pids
                    )
                    timed_out = True
                except Exception as exc:  # noqa: BLE001 — app-level error
                    failures[index] = exc
                else:
                    harvest(index, value)
        finally:
            pool.terminate()
            pool.join()
        return failures

    def _wait(self, handle):
        """Wait for one AsyncResult, honoring the per-cell timeout.

        Waits in short slices so Ctrl-C stays responsive even on
        platforms where ``AsyncResult.get`` blocks uninterruptibly.
        """
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        while True:
            if handle.ready():
                return handle.get(0)
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise multiprocessing.TimeoutError()
                handle.wait(min(_POLL_SECONDS, remaining))
            else:
                handle.wait(_POLL_SECONDS)

    @staticmethod
    def _worker_pids(pool) -> Optional[frozenset]:
        """Best-effort snapshot of the pool's worker pids.

        Uses the pool's private worker list — stable across CPython
        3.8–3.13 but guarded anyway; ``None`` disables the crash/hang
        distinction and timeouts are reported as timeouts.
        """
        try:
            return frozenset(proc.pid for proc in pool._pool)
        except Exception:  # noqa: BLE001 — diagnostics only
            return None

    def _classify_timeout(self, index, pool, before):
        """Was this a hang or a dead worker?  (Heuristic, for messages.)

        A SIGKILL'd/OOM-killed worker is replaced by the pool, so the
        worker-pid set changes; a genuinely hung worker keeps its pid.
        ``maxtasksperchild`` recycling can also change pids, so this
        only picks the error *message* — both classes are retried the
        same way.
        """
        after = self._worker_pids(pool)
        if before is not None and after is not None and after != before:
            return WorkerCrashError(
                f"worker running cell {index} died (worker set changed "
                f"while waiting; task lost) — retrying in a fresh pool"
            )
        return WorkerTimeoutError(
            f"cell {index} produced no result within {self.timeout}s"
        )

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

        When the run configured a result cache (see
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
        retries_before = len(self.retry_log)
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
                retries=len(self.retry_log) - retries_before,
                jobs=self.jobs,
            )
        return results  # type: ignore[return-value]
