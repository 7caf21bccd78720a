"""End-to-end telemetry: event tracing, metric sampling, introspection.

Four modules:

* :mod:`repro.telemetry.events` — the bounded structured
  :class:`EventTracer`, JSONL serialization, schema validation, and
  the Chrome ``trace_event`` exporter;
* :mod:`repro.telemetry.runtime` — sessions, the picklable
  :class:`TelemetrySpec` that rides into worker processes, and the
  parent-side :class:`RunCollector` that merges per-cell streams
  deterministically;
* :mod:`repro.telemetry.flightrec` — the recovery flight recorder:
  per-phase analytic + wall-clock profiling of recovery engine runs;
* :mod:`repro.telemetry.sampling` — the deterministic op-tick sampler
  of ``collect_stats()`` feeding ``--samples-out`` NDJSON.

Simulated statistics themselves are plain counters on each component,
read through :class:`repro.util.stats.StatGroup` views.

See ``docs/observability.md`` for the metric naming scheme, the event
schema table, and the Chrome-trace workflow.
"""

from repro.telemetry.events import (
    DEFAULT_BUFFER_LIMIT,
    EVENT_SCHEMA,
    EventTracer,
    NULL_TRACER,
    chrome_trace,
    read_jsonl,
    validate_events,
    write_jsonl,
)
from repro.telemetry.flightrec import FlightRecorder, breakdown_seconds
from repro.telemetry.runtime import (
    RunCollector,
    TelemetrySession,
    TelemetrySpec,
    active_sampler,
    active_spec,
    build_manifest,
    configure_telemetry,
    current_tracer,
    git_describe,
    live_tracer,
    run_collector,
    sampling_active,
    session,
    write_manifest,
)
from repro.telemetry.sampling import MetricSampler

__all__ = [
    "DEFAULT_BUFFER_LIMIT",
    "EVENT_SCHEMA",
    "EventTracer",
    "NULL_TRACER",
    "chrome_trace",
    "read_jsonl",
    "validate_events",
    "write_jsonl",
    "FlightRecorder",
    "breakdown_seconds",
    "MetricSampler",
    "RunCollector",
    "TelemetrySession",
    "TelemetrySpec",
    "active_sampler",
    "active_spec",
    "build_manifest",
    "configure_telemetry",
    "current_tracer",
    "git_describe",
    "live_tracer",
    "run_collector",
    "sampling_active",
    "session",
    "write_manifest",
]
