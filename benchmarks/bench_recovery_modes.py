"""Ablation bench: counter-recovery mode.

Phase vs Osiris recovery (§2.4): phase bits make recovery one decrypt
per counter at the cost of one cleartext byte per write burst.
"""

from dataclasses import replace

from repro.config import CounterRecoveryKind, SchemeKind
from repro.controller.factory import build_controller
from repro.core.recovery_agit import AgitRecovery
from repro.crypto.keys import ProcessorKeys
from repro.recovery.crash import crash, reincarnate
from repro.traces.profiles import profile
from repro.traces.replay import replay
from repro.traces.synthetic import generate_trace

from tests.helpers import small_config

MIB = 1024 * 1024


def _crashed(config):
    controller = build_controller(config, keys=ProcessorKeys(0))
    trace = generate_trace(
        profile("libquantum"),
        2500,
        seed=0,
        capacity_bytes=config.memory.capacity_bytes,
    )
    replay(controller, trace)
    crash(controller)
    return reincarnate(controller)


def test_ablation_phase_vs_osiris_recovery(benchmark):
    """Compare recovery trial counts for the two §2.4 mechanisms."""

    def run_pair():
        reports = {}
        for kind in (CounterRecoveryKind.OSIRIS, CounterRecoveryKind.PHASE):
            config = small_config(
                SchemeKind.AGIT_PLUS, memory_bytes=64 * MIB
            )
            config = replace(
                config,
                encryption=replace(config.encryption, counter_recovery=kind),
            )
            reborn = _crashed(config)
            reports[kind.value] = AgitRecovery(
                reborn.nvm, reborn.layout, reborn
            ).run()
        return reports

    reports = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert reports["phase"].osiris_trials <= reports["osiris"].osiris_trials
    assert reports["phase"].root_matched and reports["osiris"].root_matched
    benchmark.extra_info["trials"] = {
        kind: report.osiris_trials for kind, report in reports.items()
    }
    benchmark.extra_info["estimated_ms"] = {
        kind: round(report.estimated_seconds() * 1000, 4)
        for kind, report in reports.items()
    }
