"""The recovery flight recorder.

The contract under test: **breakdowns partition totals.**  The
analytic per-phase recovery breakdowns sum to the headline
``*_recovery_time_s`` values exactly, and a real recovery run's
flight-recorder phases partition the report's own ``estimated_ns``
step model.
"""

from __future__ import annotations

import json

import pytest

import repro.cli as cli
from repro.config import GIB, SchemeKind
from repro.controller.factory import build_controller
from repro.core.recovery_agit import AgitRecovery
from repro.core.recovery_asit import AsitRecovery
from repro.core.recovery_time import (
    agit_recovery_breakdown,
    agit_recovery_time_s,
    asit_recovery_breakdown,
    asit_recovery_time_s,
    osiris_recovery_breakdown,
    osiris_recovery_time_s,
)
from repro.crypto.keys import ProcessorKeys
from repro.recovery.crash import crash, reincarnate
from repro.sim.engine import run_simulation
from repro.telemetry import TelemetrySpec, validate_events
from repro.telemetry.flightrec import FlightRecorder, breakdown_seconds
from repro.traces.profiles import profile
from repro.traces.replay import replay
from repro.traces.synthetic import generate_trace

from tests.helpers import small_config

MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# analytic breakdowns partition the headline totals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("capacity", [128 * GIB, 1024 * GIB])
def test_osiris_breakdown_sums_to_total(capacity):
    phases = osiris_recovery_breakdown(capacity)
    assert set(phases) == {"data_fetch", "counter_trials", "tree_rebuild"}
    assert sum(phases.values()) == osiris_recovery_time_s(capacity)


@pytest.mark.parametrize("cache", [128 * 1024, 4096 * 1024])
def test_agit_breakdown_sums_to_total(cache):
    phases = agit_recovery_breakdown(cache, cache)
    assert set(phases) == {"shadow_scan", "counter_repair", "node_rebuild"}
    assert sum(phases.values()) == agit_recovery_time_s(cache, cache)


@pytest.mark.parametrize("cache", [256 * 1024, 8192 * 1024])
def test_asit_breakdown_sums_to_total(cache):
    phases = asit_recovery_breakdown(cache)
    assert set(phases) == {"st_scan", "splice_read", "parent_fetch"}
    assert sum(phases.values()) == asit_recovery_time_s(cache)


# ---------------------------------------------------------------------------
# flight recorder: measured phases partition the report's step model
# ---------------------------------------------------------------------------


def _crashed_controller(scheme, tree=None):
    kwargs = {"memory_bytes": 64 * MIB}
    if tree is not None:
        kwargs["tree"] = tree
    config = small_config(scheme, **kwargs)
    controller = build_controller(config, keys=ProcessorKeys(3))
    trace = generate_trace(
        profile("gcc"), 400, seed=3,
        capacity_bytes=config.memory.capacity_bytes,
    )
    replay(controller, trace)
    crash(controller)
    return reincarnate(controller)


def test_agit_flight_recorder_partitions_estimate():
    reborn = _crashed_controller(SchemeKind.AGIT_PLUS)
    report = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
    assert [p["phase"] for p in report.phases] == [
        "scan", "repair_counters", "rebuild_nodes", "verify_root",
    ]
    assert sum(
        p["analytic_ns"] for p in report.phases
    ) == report.estimated_ns()
    assert all(p["wall_seconds"] >= 0.0 for p in report.phases)
    assert sum(report.breakdown_seconds().values()) == pytest.approx(
        report.estimated_seconds(), rel=1e-12
    )


def test_asit_flight_recorder_partitions_estimate():
    from repro.config import TreeKind

    reborn = _crashed_controller(SchemeKind.ASIT, tree=TreeKind.SGX)
    report = AsitRecovery(reborn.nvm, reborn.layout, reborn).run()
    assert [p["phase"] for p in report.phases] == [
        "scan_shadow", "splice", "verify", "commit",
    ]
    assert sum(
        p["analytic_ns"] for p in report.phases
    ) == report.estimated_ns()


def test_flight_recorder_unit():
    ticks = [0.0]
    recorder = FlightRecorder("demo", lambda: ticks[0])
    with recorder.phase("alpha"):
        ticks[0] += 300.0
    with recorder.phase("beta"):
        ticks[0] += 700.0
    assert [
        (record["phase"], record["analytic_ns"]) for record in recorder.phases
    ] == [("alpha", 300.0), ("beta", 700.0)]
    assert recorder.total_ns() == 1000.0
    assert breakdown_seconds(recorder.phases) == {
        "alpha": 3e-7, "beta": 7e-7,
    }


def test_experiment_breakdowns_match_series():
    from repro.experiments import fig05_recovery_osiris as fig05
    from repro.experiments import fig12_recovery_time as fig12

    r5 = fig05.run(capacities=[128 * GIB])
    assert sum(r5.breakdowns[128 * GIB].values()) == r5.recovery_seconds[
        128 * GIB
    ]
    r12 = fig12.run(cache_sizes=[256 * 1024])
    assert sum(r12.agit_breakdown[256 * 1024].values()) == (
        r12.agit_analytic[256 * 1024]
    )
    assert sum(r12.asit_breakdown[256 * 1024].values()) == (
        r12.asit_analytic[256 * 1024]
    )


# ---------------------------------------------------------------------------
# batch.fallback events: present, schema-valid, result-neutral
# ---------------------------------------------------------------------------


def test_batch_fallback_event_on_traced_run():
    config = small_config(SchemeKind.AGIT_PLUS, memory_bytes=64 * MIB)
    trace = generate_trace(
        profile("gcc"), 300, seed=5,
        capacity_bytes=config.memory.capacity_bytes,
    )
    traced = run_simulation(
        config, trace, ProcessorKeys(5), telemetry=TelemetrySpec(),
    )
    fallbacks = [
        e for e in traced.events if e["kind"] == "batch.fallback"
    ]
    assert [(e["reason"], e["start"], e["stop"]) for e in fallbacks] == [
        ("telemetry", 0, len(trace))
    ]
    assert validate_events(traced.events) == []
    # The traced run replays scalar; the untraced one batches.  Both
    # land on the same result.
    untraced = run_simulation(config, trace, ProcessorKeys(5))
    assert traced.elapsed_ns == untraced.elapsed_ns
    assert traced.stats == untraced.stats


# ---------------------------------------------------------------------------
# CLI: recover-report and stats satellites
# ---------------------------------------------------------------------------


def test_recover_report_json_three_phases_per_scheme(capsys):
    assert cli.main(["recover-report", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"].startswith("repro.telemetry.recover-report/")
    for name in ("osiris", "anubis_agit", "anubis_asit"):
        scheme = report["schemes"][name]
        assert len(scheme["phases"]) >= 3, name
        assert sum(scheme["phases"].values()) == scheme["total_seconds"]


def test_recover_report_writes_json_artifact(tmp_path, capsys):
    out = tmp_path / "recover.json"
    assert cli.main(["recover-report", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["schemes"]) == {
        "osiris", "anubis_agit", "anubis_asit",
    }


def test_stats_from_metrics_round_trip(tmp_path, capsys):
    snapshot = tmp_path / "metrics.json"
    assert cli.main([
        "stats", "--length", "300", "--metrics-out", str(snapshot),
    ]) == 0
    capsys.readouterr()
    assert cli.main([
        "stats", "--from-metrics", str(snapshot), "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"].startswith("repro.telemetry.metrics/")
    assert doc["cells"]


@pytest.mark.parametrize("payload", [
    "not json at all",
    json.dumps({"schema": "something/else", "cells": [{}]}),
    json.dumps({"schema": "repro.telemetry.metrics/1", "cells": []}),
])
def test_stats_from_metrics_rejects_bad_files(tmp_path, payload, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    assert cli.main(["stats", "--from-metrics", str(bad)]) == 2
    assert "bad.json" in capsys.readouterr().err


def test_stats_from_metrics_rejects_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli.main(["stats", "--from-metrics", str(missing)]) == 2
    assert "missing.json" in capsys.readouterr().err

