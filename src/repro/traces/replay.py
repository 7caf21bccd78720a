"""Trace replay through a controller, with a functional shadow model.

:func:`replay` drives every request through the controller and, when
asked, keeps a plain dict of the latest plaintext per address — the
oracle the crash/recovery tests compare post-recovery reads against.
It is the one scalar replay loop.

:func:`replay_batched` is the drop-in fast variant: it hands the
trace's parallel lists to the batch engine
(:mod:`repro.controller.batch`), which plans each access inline,
whenever :func:`~repro.controller.batch.batch_supported` accepts the
controller, and runs :func:`replay` otherwise — under a live telemetry
session and for configurations the batch engine refuses.  Results are
identical to :func:`replay` in all cases; only wall-clock differs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import BLOCK_SIZE
from repro.controller.base import SecureMemoryController
from repro.errors import IntegrityError
from repro.traces.trace import Trace


def _bounds(trace: Trace, start: int, stop: Optional[int]) -> Tuple[int, int]:
    """``[start, stop)`` clipped to the trace (``stop=None``: its end)."""
    total = len(trace)
    return max(0, start), total if stop is None else min(total, stop)


def replay(
    controller: SecureMemoryController,
    trace: Trace,
    oracle: Optional[Dict[int, bytes]] = None,
    check_reads: bool = False,
    start: int = 0,
    stop: Optional[int] = None,
) -> Dict[int, bytes]:
    """Run requests ``[start, stop)`` of ``trace`` through ``controller``.

    Parameters
    ----------
    oracle:
        Optional pre-existing plaintext oracle to extend (for replays
        that continue an earlier stream, e.g. after recovery).
    check_reads:
        When True, every read's result is compared against the oracle —
        a full functional check, slower but used widely in tests.
    start, stop:
        Replay only requests ``[start, stop)`` (default: the whole
        trace).

    Returns the (possibly updated) oracle mapping address -> plaintext.
    """
    shadow: Dict[int, bytes] = oracle if oracle is not None else {}
    # Never-written lines read back as zeros.
    blank = bytes(BLOCK_SIZE)
    access = controller.access
    addresses = trace.addresses
    writes = trace.is_write
    gaps = trace.gaps
    payloads = trace.data
    for index in range(*_bounds(trace, start, stop)):
        address = addresses[index]
        if writes[index]:
            data = payloads[index]
            access(address, data, gaps[index])
            shadow[address] = data
        else:
            data = access(address, None, gaps[index])
            if check_reads and data != shadow.get(address, blank):
                raise IntegrityError(
                    f"replay mismatch at {address:#x}: "
                    f"controller returned different plaintext than "
                    f"the oracle"
                )
    return shadow


def replay_batched(
    controller: SecureMemoryController,
    trace: Trace,
    oracle: Optional[Dict[int, bytes]] = None,
    start: int = 0,
    stop: Optional[int] = None,
) -> Dict[int, bytes]:
    """Drop-in :func:`replay` that batches the steady-state hot path.

    Parameters mirror :func:`replay` (functional ``check_reads`` runs
    use :func:`replay` itself).  Callers that must pause at known
    indices — the fault campaign snapshotting the persistent domain at
    crash points — replay segment by segment through ``start``/``stop``
    with the same semantics as one pass.

    The result — oracle content, controller state, statistics, timing,
    raised errors — is identical to :func:`replay` for every supported
    configuration; unsupported ones run :func:`replay`.
    """
    from repro.controller.batch import (
        batch_supported,
        run_batched_range,
        scalar_fallback_reason,
    )
    from repro.telemetry.runtime import live_tracer

    shadow: Dict[int, bytes] = oracle if oracle is not None else {}
    start, stop = _bounds(trace, start, stop)
    if stop <= start:
        return shadow
    tracer = live_tracer()
    if tracer.enabled:
        # A live tracer always forces the whole range scalar, so the
        # event stream carries per-access events in scalar order.
        tracer.emit(
            "batch.fallback",
            reason=scalar_fallback_reason(controller) or "telemetry",
            start=start,
            stop=stop,
        )
    if not batch_supported(controller):
        return replay(controller, trace, shadow, start=start, stop=stop)
    run_batched_range(controller, trace, start, stop, shadow)
    return shadow
