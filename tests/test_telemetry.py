"""Telemetry: zero-cost when off, byte-identical at any ``--jobs``.

The contract under test, in order of importance:

1. with no session installed nothing is recorded and results carry no
   event payloads (disabled mode emits nothing);
2. the merged event stream and the metrics snapshot of a sweep are
   byte-identical at ``--jobs`` 1, 2, and 4;
3. a cell whose buffer overflows is truncated *loudly* — drop counts in
   its result, the cell flagged in the run manifest.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.config import SchemeKind, TreeKind
from repro.controller.factory import build_controller
from repro.crypto.keys import ProcessorKeys
from repro.sim.engine import run_simulation
from repro.sim.parallel import ParallelSweepExecutor
from repro.sim.results import SimulationResult
from repro.telemetry import (
    EventTracer,
    NULL_TRACER,
    RunCollector,
    TelemetrySpec,
    build_manifest,
    chrome_trace,
    configure_telemetry,
    current_tracer,
    live_tracer,
    read_jsonl,
    session,
    validate_events,
    write_jsonl,
)
from repro.traces.profiles import profile
from repro.traces.synthetic import generate_trace

from tests.helpers import small_config

MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# tracer behaviour
# ---------------------------------------------------------------------------


def test_disabled_tracer_records_nothing():
    tracer = EventTracer(enabled=False)
    tracer.emit("mem.access", op="read", address=0)
    assert len(tracer) == 0
    assert tracer.dropped == 0
    assert not tracer.truncated


def test_buffer_overflow_counts_drops():
    tracer = EventTracer(buffer_limit=3)
    for index in range(10):
        tracer.emit("wpq.drain", count=index)
    assert len(tracer) == 3
    assert tracer.dropped == 7
    assert tracer.truncated


def test_jsonl_round_trip_and_validation():
    tracer = EventTracer()
    tracer.now = 125.0
    tracer.emit("mem.access", op="write", address=64)
    tracer.emit("cache.miss", cache="counter_cache", address=64)
    stream = io.StringIO()
    assert write_jsonl(tracer.events(), stream) == 2
    events = read_jsonl(io.StringIO(stream.getvalue()))
    assert events == tracer.events()
    assert validate_events(events) == []


def test_validation_flags_bad_events():
    problems = validate_events(
        [
            {"kind": "no.such.kind", "ns": 0, "seq": 0},
            {"kind": "mem.access", "ns": 0, "seq": 1},  # missing fields
            {"ns": 0, "seq": 2},  # no kind at all
        ]
    )
    assert len(problems) >= 3


def test_chrome_trace_shapes():
    events = [
        {"kind": "mem.access", "ns": 1000.0, "seq": 0, "cell": 2,
         "op": "read", "address": 0},
        {"kind": "recovery.begin", "ns": 0.0, "seq": 1, "engine": "agit"},
        {"kind": "recovery.end", "ns": 500.0, "seq": 2, "engine": "agit",
         "ok": True},
    ]
    trace = chrome_trace(events)
    records = [r for r in trace["traceEvents"] if r["ph"] != "M"]
    phases = [record["ph"] for record in records]
    assert phases == ["i", "B", "E"]
    instant = records[0]
    assert instant["s"] == "t"
    assert instant["ts"] == 1.0  # 1000ns -> 1µs
    assert instant["tid"] == 2
    assert instant["pid"] == 1
    # Recovery activity lives on its own process lane.
    assert records[1]["pid"] == 2
    assert records[2]["pid"] == 2
    assert records[1]["tid"] == records[2]["tid"]
    # Every lane carries a thread-name metadata record.
    names = [
        r["args"]["name"]
        for r in trace["traceEvents"]
        if r["ph"] == "M"
    ]
    assert "cell2" in names
    assert any("agit" in name for name in names)


# ---------------------------------------------------------------------------
# sessions and the zero-cost contract
# ---------------------------------------------------------------------------


def test_current_tracer_defaults_to_null():
    assert current_tracer() is NULL_TRACER
    assert not NULL_TRACER.enabled


def test_session_installs_and_pops():
    with session(TelemetrySpec()) as active:
        assert current_tracer() is active.tracer
    assert current_tracer() is NULL_TRACER


def test_live_tracer_follows_session_installs():
    facade = live_tracer()
    assert facade.enabled is False
    assert facade.target is NULL_TRACER
    with session(TelemetrySpec()) as active:
        assert facade.enabled is True
        assert facade.target is active.tracer
        facade.emit("wpq.drain", ns=0.0, count=1)
        assert len(active.tracer) == 1
    assert facade.enabled is False
    assert facade.target is NULL_TRACER


def test_components_built_before_session_still_emit():
    """Regression: engines built *before* telemetry is armed must not
    stay bound to the null tracer for their whole lifetime."""
    from repro.traces.replay import replay

    config = small_config(SchemeKind.AGIT_PLUS, memory_bytes=64 * MIB)
    controller = build_controller(config, keys=ProcessorKeys(1))

    def run(seed):
        replay(controller, generate_trace(
            profile("gcc"), 200, seed=seed,
            capacity_bytes=config.memory.capacity_bytes,
        ))

    with session(TelemetrySpec()) as active:
        run(1)
        recorded = len(active.tracer.events())
    assert recorded > 0
    kinds = {event["kind"] for event in active.tracer.events()}
    assert "mem.access" in kinds
    # And after the session pops, the same controller goes silent again.
    run(2)
    assert len(active.tracer.events()) == recorded


def test_recovery_engine_built_before_session_still_emits():
    from repro.core.recovery_agit import AgitRecovery
    from repro.recovery.crash import crash, reincarnate
    from repro.traces.replay import replay

    config = small_config(SchemeKind.AGIT_PLUS, memory_bytes=64 * MIB)
    controller = build_controller(config, keys=ProcessorKeys(1))
    replay(controller, generate_trace(
        profile("gcc"), 200, seed=1,
        capacity_bytes=config.memory.capacity_bytes,
    ))
    crash(controller)
    reborn = reincarnate(controller)
    engine = AgitRecovery(reborn.nvm, reborn.layout, reborn)
    with session(TelemetrySpec()) as active:
        engine.run()
    kinds = [event["kind"] for event in active.tracer.events()]
    assert kinds.count("recovery.begin") == 1
    assert kinds.count("recovery.end") == 1


def test_simulation_without_telemetry_attaches_nothing():
    config = small_config(SchemeKind.AGIT_PLUS, memory_bytes=64 * MIB)
    trace = generate_trace(
        profile("gcc"), 200, seed=1, capacity_bytes=config.memory.capacity_bytes
    )
    result = run_simulation(config, trace, ProcessorKeys(1))
    assert result.events is None
    assert result.telemetry is None
    assert "events" not in result.to_dict()


def test_simulation_with_telemetry_attaches_events():
    config = small_config(SchemeKind.AGIT_PLUS, memory_bytes=64 * MIB)
    trace = generate_trace(
        profile("gcc"), 200, seed=1, capacity_bytes=config.memory.capacity_bytes
    )
    result = run_simulation(
        config, trace, ProcessorKeys(1), telemetry=TelemetrySpec()
    )
    assert result.events
    assert result.telemetry == {
        "events": len(result.events),
        "dropped_events": 0,
    }
    assert validate_events(result.events) == []
    kinds = {event["kind"] for event in result.events}
    assert "mem.access" in kinds
    # Simulated-clock timestamps: never wall clock, monotone non-strict.
    ns_values = [event["ns"] for event in result.events]
    assert ns_values == sorted(ns_values)
    # Round-trips through the result-store entry form.
    clone = SimulationResult.from_dict(result.to_dict())
    assert clone.events == result.events


def test_detail_flag_gates_cache_hits():
    config = small_config(SchemeKind.AGIT_PLUS, memory_bytes=64 * MIB)
    trace = generate_trace(
        profile("gcc"), 300, seed=1, capacity_bytes=config.memory.capacity_bytes
    )
    plain = run_simulation(
        config, trace, ProcessorKeys(1), telemetry=TelemetrySpec()
    )
    detailed = run_simulation(
        config, trace, ProcessorKeys(1), telemetry=TelemetrySpec(detail=True)
    )
    plain_kinds = {event["kind"] for event in plain.events}
    detailed_kinds = {event["kind"] for event in detailed.events}
    assert "cache.hit" not in plain_kinds
    assert "cache.hit" in detailed_kinds


# ---------------------------------------------------------------------------
# recovery and crash events
# ---------------------------------------------------------------------------


def test_crash_and_recovery_emit_events():
    from repro.core.recovery_agit import AgitRecovery
    from repro.recovery.crash import crash, reincarnate
    from repro.traces.replay import replay

    with session(TelemetrySpec()) as active:
        config = small_config(SchemeKind.AGIT_PLUS, memory_bytes=64 * MIB)
        controller = build_controller(config, keys=ProcessorKeys(1))
        replay(controller, generate_trace(
        profile("gcc"), 300, seed=1, capacity_bytes=config.memory.capacity_bytes
    ))
        crash(controller)
        reborn = reincarnate(controller)
        AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
    kinds = [event["kind"] for event in active.tracer.events()]
    assert "crash.power_failure" in kinds
    assert kinds.count("recovery.begin") == 1
    assert kinds.count("recovery.end") == 1
    assert "recovery.step" in kinds
    assert validate_events(active.tracer.events()) == []


def test_campaign_emits_trial_events_and_on_trial():
    from repro.faults.campaign import CampaignConfig, run_campaign

    campaign = CampaignConfig(
        system=small_config(SchemeKind.AGIT_PLUS),
        seed=2,
        trials=4,
        trace_length=300,
        num_crash_points=2,
        probe_reads=2,
    )
    seen = []
    with session(TelemetrySpec()) as active:
        result = run_campaign(campaign, on_trial=seen.append)
    assert len(seen) == 4
    assert len(result.trials) == 4
    kinds = [event["kind"] for event in active.tracer.events()]
    assert kinds.count("fault.inject") == 4
    assert kinds.count("trial.outcome") == 4


# ---------------------------------------------------------------------------
# parallel byte-identity
# ---------------------------------------------------------------------------


def _collect_run(jobs):
    """One small grid with telemetry armed; serialized outputs."""
    config = small_config(memory_bytes=64 * MIB)
    traces = [
        generate_trace(profile(name), 400, seed=3)
        for name in ("gcc", "libquantum")
    ]
    cells = [
        (config.with_scheme(scheme), trace)
        for trace in traces
        for scheme in (SchemeKind.WRITE_BACK, SchemeKind.AGIT_PLUS)
    ]
    collector = configure_telemetry(TelemetrySpec())
    try:
        executor = ParallelSweepExecutor(jobs, backoff=0)
        results = executor.run_simulations(cells, ProcessorKeys(7))
    finally:
        configure_telemetry(None)
    stream = io.StringIO()
    write_jsonl(collector.events, stream)
    snapshot = json.dumps(
        collector.metrics_snapshot(results), sort_keys=True
    )
    return stream.getvalue(), snapshot


@pytest.mark.parametrize("jobs", [2, 4])
def test_event_stream_identical_across_jobs(jobs):
    serial_trace, serial_metrics = _collect_run(1)
    fanned_trace, fanned_metrics = _collect_run(jobs)
    assert fanned_trace == serial_trace
    assert fanned_metrics == serial_metrics
    assert serial_trace  # non-empty: the sweep actually recorded events


def test_truncation_is_flagged_in_manifest():
    config = small_config(SchemeKind.AGIT_PLUS, memory_bytes=64 * MIB)
    trace = generate_trace(
        profile("gcc"), 300, seed=1, capacity_bytes=config.memory.capacity_bytes
    )
    collector = RunCollector()
    result = run_simulation(
        config,
        trace,
        ProcessorKeys(1),
        telemetry=TelemetrySpec(buffer_limit=10),
    )
    collector.absorb(result)
    assert result.telemetry["dropped_events"] > 0
    assert collector.truncated
    assert collector.truncated_cells == [0]
    manifest = build_manifest(
        command="test", config_fingerprint="f" * 16, collector=collector
    )
    assert manifest["telemetry"]["truncated"] is True
    assert manifest["telemetry"]["truncated_cells"] == [0]
    assert manifest["schema"].startswith("repro.telemetry.manifest/")


def test_collector_tags_cells_in_submission_order():
    collector = RunCollector()
    for index in range(3):
        result = SimulationResult(
            benchmark=f"b{index}",
            scheme=SchemeKind.WRITE_BACK,
            elapsed_ns=1.0,
            requests=1,
            events=[{"kind": "wpq.drain", "ns": 0.0, "seq": 0, "count": 1}],
            telemetry={"events": 1, "dropped_events": 0},
        )
        collector.absorb(result)
    assert [event["cell"] for event in collector.events] == [0, 1, 2]
    assert collector.total_events == 3


# ---------------------------------------------------------------------------
# runner plumbing
# ---------------------------------------------------------------------------


def test_runner_accepts_run_verb(capsys):
    from repro.experiments.runner import main

    assert main(["run", "headline"]) == 0
    printed = capsys.readouterr().out
    assert "recovery-time comparison" in printed


def test_resumed_run_rewrites_the_same_event_stream(
    tmp_path, monkeypatch, capsys
):
    """A ``--resume`` re-run restores every traced cell from the store,
    events included, instead of skipping the experiment's telemetry."""
    from repro.experiments import fig07_clean_evictions
    from repro.experiments.runner import main

    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    run_fig07 = fig07_clean_evictions.run
    monkeypatch.setattr(
        fig07_clean_evictions,
        "run",
        lambda trace_length, jobs: run_fig07(
            benchmarks=["gcc", "mcf"], trace_length=300, jobs=jobs
        ),
    )
    resume = tmp_path / "resume"
    streams, results = [], []
    for name in ("first.jsonl", "again.jsonl"):
        trace_out = tmp_path / name
        assert main([
            "fig07", "--resume", str(resume), "--trace-out", str(trace_out),
        ]) == 0
        streams.append(trace_out.read_bytes())
        results.append((resume / "results.json").read_bytes())
    capsys.readouterr()
    assert streams[0] and streams[0] == streams[1]
    assert results[0] == results[1]
    traffic = json.loads((resume / "manifest.json").read_text())
    assert traffic["result_cache"]["hits"] == 2
    assert traffic["result_cache"]["misses"] == 0


def test_stats_cli_prints_percentile_columns(capsys, tmp_path):
    from repro.cli import main

    metrics = tmp_path / "m.json"
    trace_out = tmp_path / "t.jsonl"
    status = main(
        [
            "stats",
            "--scheme",
            "agit_plus",
            "--length",
            "400",
            "--metrics-out",
            str(metrics),
            "--trace-out",
            str(trace_out),
        ]
    )
    assert status == 0
    printed = capsys.readouterr().out
    assert "events" in printed
    snapshot = json.loads(metrics.read_text())
    assert snapshot["schema"].startswith("repro.telemetry.metrics/")
    assert snapshot["totals"]["cells"] == 1
    with open(trace_out) as stream:
        events = read_jsonl(stream)
    assert events and validate_events(events) == []
    assert (tmp_path / "m.json.manifest.json").exists()
