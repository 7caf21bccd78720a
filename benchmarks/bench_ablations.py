"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — sensitivity studies on the knobs the
design fixes by fiat: the Osiris stop-loss limit, the WPQ depth, and
the shadow-update policy (fill-time vs first-dirty tracking).
"""

from dataclasses import replace

import pytest

from repro.config import SchemeKind
from repro.crypto.keys import ProcessorKeys
from repro.sim.engine import run_simulation
from repro.traces.profiles import profile
from repro.traces.synthetic import generate_trace

from tests.helpers import small_config

MIB = 1024 * 1024


@pytest.fixture(scope="module")
def hot_trace():
    return generate_trace(profile("libquantum"), 4000, seed=0)


@pytest.fixture(scope="module")
def read_trace():
    return generate_trace(profile("mcf"), 4000, seed=0)


def test_ablation_stop_loss_limit(benchmark, hot_trace):
    """Larger stop-loss: fewer persists (cheaper runs) but a wider
    trial window (slower recovery).  The bench records the run-time
    side of the trade-off Osiris fixes at N=4."""

    def sweep():
        results = {}
        for limit in (2, 4, 8, 16):
            config = small_config(SchemeKind.OSIRIS, memory_bytes=512 * MIB)
            config = replace(
                config,
                encryption=replace(config.encryption, stop_loss_limit=limit),
            )
            results[limit] = run_simulation(
                config, hot_trace, ProcessorKeys(0)
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    persists = {
        limit: result.stat("ctrl.persist_writes")
        for limit, result in results.items()
    }
    assert persists[2] > persists[8]
    benchmark.extra_info["persist_writes_by_stop_loss"] = persists


def test_ablation_wpq_depth(benchmark, hot_trace):
    """Deeper WPQs coalesce more same-address traffic within the drain
    window; beyond a few tens of entries the effect saturates."""

    def sweep():
        results = {}
        for entries in (4, 16, 32, 64):
            config = replace(
                small_config(SchemeKind.OSIRIS, memory_bytes=512 * MIB),
                wpq_entries=entries
            )
            results[entries] = run_simulation(
                config, hot_trace, ProcessorKeys(0)
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    writes = {
        entries: result.nvm_writes for entries, result in results.items()
    }
    assert writes[4] >= writes[64]
    benchmark.extra_info["nvm_writes_by_wpq_depth"] = writes


def test_ablation_shadow_tracking_policy(benchmark, read_trace):
    """The AGIT-Read vs AGIT-Plus choice, isolated on the workload that
    separates them most (read-dominated MCF): first-dirty tracking cuts
    shadow writes by an order of magnitude."""

    def sweep():
        return {
            scheme: run_simulation(
                small_config(scheme, memory_bytes=512 * MIB),
                read_trace,
                ProcessorKeys(0),
            )
            for scheme in (SchemeKind.AGIT_READ, SchemeKind.AGIT_PLUS)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    shadow = {
        scheme.value: result.stat("ctrl.shadow_writes")
        for scheme, result in results.items()
    }
    assert shadow["agit_plus"] < 0.4 * shadow["agit_read"]
    benchmark.extra_info["shadow_writes"] = shadow
