"""Structured event tracing: bounded buffers, JSONL, Chrome traces.

An :class:`EventTracer` is the write side: components call
``tracer.emit(kind, **fields)`` on the hot path, guarded by
``tracer.enabled`` so the disabled case costs one attribute read.  Each
event records the *simulated* clock (``tracer.now``, nanoseconds — the
memory channel keeps it current) and a per-tracer sequence number;
never wall-clock time, so traces from equal runs are byte-identical.

The read side is plain data: :func:`write_jsonl` serializes events one
per line with sorted keys, :func:`validate_events` checks a stream
against :data:`EVENT_SCHEMA`, and :func:`chrome_trace` converts to the
Chrome ``trace_event`` format (open ``chrome://tracing`` or
https://ui.perfetto.dev and load the file).

Buffers are bounded: past ``buffer_limit`` events the tracer stops
recording and counts drops instead of growing without bound — a
truncated trace is flagged in the run manifest, never silent.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, TextIO, Tuple

#: Default per-tracer event-buffer capacity.  A fig10-scale cell emits
#: a few events per simulated access; 200k events is roughly 40MB of
#: JSONL — past that, drop and flag.
DEFAULT_BUFFER_LIMIT = 200_000

#: Event kind -> (required fields, description).  ``kind``, ``ns`` and
#: ``seq`` are implicit in every event; ``cell`` is added by the run
#: collector when streams from many simulation cells are merged.
EVENT_SCHEMA: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "mem.access": (
        ("op", "address"),
        "one request entered the secure memory controller",
    ),
    "cache.hit": (
        ("cache", "address"),
        "metadata-cache lookup hit (detail-level only)",
    ),
    "cache.miss": (
        ("cache", "address"),
        "metadata-cache lookup missed",
    ),
    "cache.evict": (
        ("cache", "address", "dirty"),
        "metadata-cache fill evicted a block (dirty says which split)",
    ),
    "shadow.update": (
        ("table", "address"),
        "Anubis shadow-table block persisted (SCT/SMT/ST)",
    ),
    "wpq.drain": (
        ("count",),
        "the write-pending queue drained pending entries to NVM",
    ),
    "crash.power_failure": (
        ("flushed", "dropped", "torn"),
        "power failure injected: ADR flush disposition",
    ),
    "fault.inject": (
        ("model", "trial"),
        "a fault model mutated the crashed image",
    ),
    "trial.outcome": (
        ("trial", "model", "outcome"),
        "one fault-campaign trial classified",
    ),
    "attack.inject": (
        ("attack", "trial", "window"),
        "an adversary tampered with the persistent domain",
    ),
    "attack.detected": (
        ("attack", "trial"),
        "tampered state was detected and refused (fail-closed)",
    ),
    "attack.missed": (
        ("attack", "trial"),
        "tampered state was silently accepted — a security escape",
    ),
    "recovery.begin": (
        ("engine",),
        "a recovery engine started",
    ),
    "recovery.step": (
        ("engine", "step"),
        "one unit of recovery work (repair/rebuild/splice/verify/commit)",
    ),
    "recovery.phase": (
        ("engine", "phase", "dur_ns"),
        "one recovery phase completed (flight recorder span)",
    ),
    "recovery.end": (
        ("engine", "ok"),
        "recovery finished (ok=False never happens: failures raise)",
    ),
    "batch.fallback": (
        ("reason", "start", "stop"),
        "batched replay dropped to the scalar path for a request window",
    ),
    "integrity.check": (
        ("tree", "ok"),
        "integrity-tree child verification (detail-level only)",
    ),
}


class EventTracer:
    """Bounded, buffered structured-event sink.

    The hot-path contract: callers guard emission sites with
    ``if tracer.enabled:`` so a disabled tracer costs one attribute
    read and no argument packing.  ``tracer.now`` holds the current
    simulated-nanosecond clock; the memory controller updates it as
    the timing channel advances, and recovery engines drive it from
    their step-cost model.
    """

    __slots__ = ("enabled", "detail", "now", "dropped", "buffer_limit",
                 "_seq", "_events")

    def __init__(
        self,
        enabled: bool = True,
        detail: bool = False,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
    ) -> None:
        self.enabled = enabled
        #: Detail level: high-frequency events (cache hits, per-check
        #: integrity events) emit only when set, keeping default traces
        #: and overhead bounded.
        self.detail = detail
        #: Current simulated time in nanoseconds.
        self.now = 0.0
        self.dropped = 0
        self.buffer_limit = buffer_limit
        self._seq = 0
        self._events: List[dict] = []

    def emit(self, kind: str, ns: Optional[float] = None, **fields) -> None:
        """Record one event (no-op when disabled; counts when full)."""
        if not self.enabled:
            return
        if len(self._events) >= self.buffer_limit:
            self.dropped += 1
            return
        event = {"kind": kind, "ns": self.now if ns is None else ns,
                 "seq": self._seq}
        event.update(fields)
        self._seq += 1
        self._events.append(event)

    @property
    def truncated(self) -> bool:
        """Whether the buffer overflowed and events were dropped."""
        return self.dropped > 0

    def events(self) -> List[dict]:
        """The recorded events, in emission order."""
        return self._events

    def drain(self) -> List[dict]:
        """Hand over the buffer and start a fresh one (seq continues)."""
        events, self._events = self._events, []
        return events

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"EventTracer({state}, {len(self._events)} events, "
            f"{self.dropped} dropped)"
        )


#: The shared disabled tracer: what :func:`~repro.telemetry.runtime.
#: current_tracer` returns when no telemetry session is active.
#: Never enable it — every component in the process aliases it.
NULL_TRACER = EventTracer(enabled=False, buffer_limit=0)


def write_jsonl(events: Iterable[dict], stream: TextIO) -> int:
    """Write events one-per-line; compact separators, sorted keys.

    The fixed serialization (plus the simulated-time/sequence-number
    timestamps) is what makes ``--trace-out`` files byte-identical
    across ``--jobs`` counts.  Returns the number of lines written.
    """
    count = 0
    for event in events:
        stream.write(
            json.dumps(event, sort_keys=True, separators=(",", ":"))
        )
        stream.write("\n")
        count += 1
    return count


def read_jsonl(stream: TextIO) -> List[dict]:
    """Parse a JSONL event stream (inverse of :func:`write_jsonl`)."""
    events = []
    for line in stream:
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


def validate_events(events: Iterable[dict]) -> List[str]:
    """Check events against :data:`EVENT_SCHEMA`; returns problems.

    An empty list means the stream is schema-valid.  Each problem
    string names the offending event index and what is wrong — unknown
    kind, missing implicit field, or missing schema field.
    """
    problems: List[str] = []
    for index, event in enumerate(events):
        kind = event.get("kind")
        if kind is None:
            problems.append(f"event {index}: no 'kind' field")
            continue
        if kind not in EVENT_SCHEMA:
            problems.append(f"event {index}: unknown kind {kind!r}")
            continue
        for implicit in ("ns", "seq"):
            if implicit not in event:
                problems.append(
                    f"event {index} ({kind}): missing {implicit!r}"
                )
        required, _description = EVENT_SCHEMA[kind]
        for field in required:
            if field not in event:
                problems.append(
                    f"event {index} ({kind}): missing field {field!r}"
                )
    return problems


#: Chrome-trace process lanes: per-cell event streams live on pid 1,
#: recovery engines get their own process so Perfetto renders phase
#: bars separately from the instant-event noise.
CHROME_PID_CELLS = 1
CHROME_PID_RECOVERY = 2


def chrome_trace(events: Iterable[dict]) -> dict:
    """Convert an event stream to Chrome ``trace_event`` JSON.

    Per-cell streams and recovery engines land on distinct pid/tid
    lanes so exported traces are readable in Perfetto: ordinary events
    become instants ("i") on ``pid 1 / tid <cell>``, while recovery
    activity moves to ``pid 2`` with one thread per ``(cell, engine)``
    pair — ``recovery.begin``/``recovery.end`` become duration
    ("B"/"E") slices and ``recovery.phase`` flight-recorder spans
    become complete ("X") slices inside them.  Thread-name metadata
    ("M") records label every lane.
    """
    trace: List[dict] = []
    cell_lanes: Dict[int, None] = {}
    recovery_lanes: Dict[Tuple[int, str], int] = {}

    def cell_tid(cell: int) -> int:
        if cell not in cell_lanes:
            cell_lanes[cell] = None
            trace.append({
                "name": "thread_name",
                "ph": "M",
                "pid": CHROME_PID_CELLS,
                "tid": cell,
                "args": {"name": f"cell{cell}"},
            })
        return cell

    def recovery_tid(cell: int, engine: str) -> int:
        key = (cell, engine)
        tid = recovery_lanes.get(key)
        if tid is None:
            tid = len(recovery_lanes)
            recovery_lanes[key] = tid
            trace.append({
                "name": "thread_name",
                "ph": "M",
                "pid": CHROME_PID_RECOVERY,
                "tid": tid,
                "args": {"name": f"cell{cell}:{engine}"},
            })
        return tid

    for event in events:
        kind = event.get("kind", "?")
        ts_us = float(event.get("ns", 0.0)) / 1000.0
        cell = int(event.get("cell", 0))
        args = {
            key: value
            for key, value in event.items()
            if key not in ("kind", "ns", "seq", "cell")
        }
        cat = kind.split(".", 1)[0]
        if cat == "recovery":
            engine = str(event.get("engine", "?"))
            record = {
                "pid": CHROME_PID_RECOVERY,
                "tid": recovery_tid(cell, engine),
                "cat": cat,
                "args": args,
            }
            if kind == "recovery.begin":
                record.update(
                    name=f"recovery:{engine}", ph="B", ts=ts_us
                )
            elif kind == "recovery.end":
                record.update(
                    name=f"recovery:{engine}", ph="E", ts=ts_us
                )
            elif kind == "recovery.phase":
                dur_us = float(event.get("dur_ns", 0.0)) / 1000.0
                record.update(
                    name=str(event.get("phase", "?")),
                    ph="X",
                    ts=ts_us - dur_us,
                    dur=dur_us,
                )
            else:
                record.update(name=kind, ph="i", ts=ts_us, s="t")
        else:
            record = {
                "name": kind,
                "ph": "i",
                "ts": ts_us,
                "pid": CHROME_PID_CELLS,
                "tid": cell_tid(cell),
                "cat": cat,
                "args": args,
                "s": "t",  # instant scope: thread
            }
        trace.append(record)
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ns",
        "otherData": {"source": "repro.telemetry"},
    }
