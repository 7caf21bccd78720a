"""Tests for trace replay, the simulation engine, and result records."""

import pytest

from repro.config import SchemeKind, TreeKind
from repro.controller.access import MemoryRequest, Op
from repro.controller.factory import build_controller
from repro.crypto.keys import ProcessorKeys
from repro.errors import IntegrityError
from repro.sim.engine import SimulationEngine, run_simulation
from repro.sim.results import (
    SchemeComparison,
    SimulationResult,
    average_overheads,
)
from repro.traces.profiles import KIB, SyntheticProfile
from repro.traces.replay import replay
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace

from tests.helpers import line, payload, small_config


def tiny_trace(name="tiny", writes=20, reads=10) -> Trace:
    trace = Trace(name)
    for index in range(writes):
        trace.append(
            MemoryRequest(
                op=Op.WRITE,
                address=line(index * 8),
                data=payload(index),
                gap_ns=100.0,
            )
        )
    for index in range(reads):
        trace.append(
            MemoryRequest(op=Op.READ, address=line(index * 8), gap_ns=100.0)
        )
    return trace


class TestReplay:
    def test_oracle_tracks_writes(self):
        controller = build_controller(small_config(), keys=ProcessorKeys(1))
        oracle = replay(controller, tiny_trace())
        assert oracle[line(0)] == payload(0)
        assert len(oracle) == 20

    def test_check_reads_passes_on_honest_controller(self):
        controller = build_controller(small_config(), keys=ProcessorKeys(1))
        replay(controller, tiny_trace(), check_reads=True)

    def test_check_reads_catches_divergence(self):
        controller = build_controller(small_config(), keys=ProcessorKeys(1))
        oracle = {line(0): payload(99)}  # wrong expectation
        trace = Trace("t")
        trace.append(MemoryRequest(op=Op.READ, address=line(0), gap_ns=0.0))
        with pytest.raises(IntegrityError):
            replay(controller, trace, oracle=oracle, check_reads=True)

    def test_oracle_extended_across_replays(self):
        controller = build_controller(small_config(), keys=ProcessorKeys(1))
        oracle = replay(controller, tiny_trace(writes=5, reads=0))
        oracle = replay(
            controller, tiny_trace(writes=10, reads=0), oracle=oracle
        )
        assert len(oracle) == 10


def _replayed_state(controller):
    nvm = controller.nvm
    return {
        "stats": controller.collect_stats(),
        "elapsed_ns": controller.elapsed_ns,
        "wpq": controller.wpq.pending_entries(),
        "nvm": [
            (address, data, nvm.read_ecc(address))
            for address, data in nvm.touched_blocks()
        ],
    }


class TestReplayMatchesAccessLoop:
    """:func:`replay` reads the trace's parallel lists; a plain loop of
    ``access`` calls over the trace's requests must leave the same
    controller behind."""

    PROFILE = SyntheticProfile(
        name="mixed",
        write_fraction=0.5,
        pattern="hot_cold",
        footprint_bytes=512 * KIB,
        hot_bytes=64 * KIB,
        hot_fraction=0.8,
    )

    @pytest.mark.parametrize(
        "scheme",
        [
            SchemeKind.WRITE_BACK,
            SchemeKind.STRICT_PERSISTENCE,
            SchemeKind.ASIT,
        ],
    )
    def test_same_stats_time_and_nvm(self, scheme):
        trace = generate_trace(self.PROFILE, 1500, seed=5)
        config = small_config(scheme, TreeKind.SGX)
        replayed = build_controller(config, keys=ProcessorKeys(2))
        replay(replayed, trace)
        looped = build_controller(config, keys=ProcessorKeys(2))
        for request in trace:
            looped.access(request.address, request.data, request.gap_ns)
        assert replayed.data_writes > 0 and replayed.data_reads > 0
        assert _replayed_state(replayed) == _replayed_state(looped)


class TestRunSimulation:
    def test_result_fields(self):
        result = run_simulation(small_config(), tiny_trace(), ProcessorKeys(1))
        assert result.benchmark == "tiny"
        assert result.scheme == SchemeKind.WRITE_BACK
        assert result.requests == 30
        assert result.elapsed_ns > 0
        assert result.ns_per_access > 0

    def test_cache_stats_included(self):
        result = run_simulation(small_config(), tiny_trace(), ProcessorKeys(1))
        assert "counter_cache.hit_rate" in result.stats
        assert "counter_cache.clean_eviction_fraction" in result.stats

    def test_sgx_cache_stats_included(self):
        result = run_simulation(
            small_config(tree=TreeKind.SGX), tiny_trace(), ProcessorKeys(1)
        )
        assert "metadata_cache.hit_rate" in result.stats

    def test_extra_writes_per_data_write(self):
        strict = run_simulation(
            small_config(SchemeKind.STRICT_PERSISTENCE),
            tiny_trace(),
            ProcessorKeys(1),
        )
        baseline = run_simulation(
            small_config(), tiny_trace(), ProcessorKeys(1)
        )
        assert strict.extra_writes_per_data_write > (
            baseline.extra_writes_per_data_write
        )


class TestEngine:
    def test_compare_normalizes_to_baseline(self):
        engine = SimulationEngine(small_config(), ProcessorKeys(1))
        comparison = engine.compare(
            tiny_trace(),
            [SchemeKind.WRITE_BACK, SchemeKind.STRICT_PERSISTENCE],
        )
        assert comparison.normalized_time(SchemeKind.WRITE_BACK) == 1.0
        assert comparison.normalized_time(SchemeKind.STRICT_PERSISTENCE) >= 1.0

    def test_sweep_covers_all_traces(self):
        engine = SimulationEngine(small_config(), ProcessorKeys(1))
        comparisons = engine.sweep(
            [tiny_trace("a"), tiny_trace("b")],
            [SchemeKind.WRITE_BACK, SchemeKind.OSIRIS],
        )
        assert [comparison.benchmark for comparison in comparisons] == [
            "a",
            "b",
        ]

    def test_scheme_config_derived(self):
        engine = SimulationEngine(small_config(), ProcessorKeys(1))
        result = engine.run(tiny_trace(), SchemeKind.AGIT_PLUS)
        assert result.scheme == SchemeKind.AGIT_PLUS


class TestResults:
    def make_comparison(self, times):
        comparison = SchemeComparison(benchmark="x")
        for scheme, elapsed in times.items():
            comparison.add(
                SimulationResult(
                    benchmark="x", scheme=scheme, elapsed_ns=elapsed, requests=1
                )
            )
        return comparison

    def test_overhead_percent(self):
        comparison = self.make_comparison(
            {SchemeKind.WRITE_BACK: 100.0, SchemeKind.OSIRIS: 110.0}
        )
        assert comparison.overhead_percent(SchemeKind.OSIRIS) == pytest.approx(
            10.0
        )

    def test_schemes_baseline_first(self):
        comparison = self.make_comparison(
            {SchemeKind.OSIRIS: 1.0, SchemeKind.WRITE_BACK: 1.0}
        )
        assert comparison.schemes()[0] == SchemeKind.WRITE_BACK

    def test_missing_baseline_raises_named_error(self):
        """Regression: a sweep without WRITE_BACK died with KeyError."""
        comparison = self.make_comparison(
            {SchemeKind.OSIRIS: 1.0, SchemeKind.AGIT_PLUS: 2.0}
        )
        assert not comparison.has_baseline
        with pytest.raises(ValueError, match="write_back"):
            comparison.normalized_time(SchemeKind.OSIRIS)
        with pytest.raises(ValueError, match="never run"):
            comparison.raw_time(SchemeKind.WRITE_BACK)

    def test_missing_baseline_not_listed_in_schemes(self):
        comparison = self.make_comparison(
            {SchemeKind.OSIRIS: 1.0, SchemeKind.AGIT_PLUS: 2.0}
        )
        schemes = comparison.schemes()
        assert SchemeKind.WRITE_BACK not in schemes
        assert set(schemes) == {SchemeKind.OSIRIS, SchemeKind.AGIT_PLUS}

    def test_raw_time_without_baseline(self):
        comparison = self.make_comparison({SchemeKind.OSIRIS: 123.0})
        assert comparison.raw_time(SchemeKind.OSIRIS) == 123.0

    def test_average_overheads_skip_baselineless_comparisons(self):
        from repro.sim.results import average_overheads

        with_base = self.make_comparison(
            {SchemeKind.WRITE_BACK: 100.0, SchemeKind.OSIRIS: 200.0}
        )
        without_base = self.make_comparison({SchemeKind.OSIRIS: 999.0})
        averages = average_overheads(
            [with_base, without_base], [SchemeKind.OSIRIS]
        )
        assert averages[SchemeKind.OSIRIS] == pytest.approx(100.0)

    def test_average_overheads_gmean(self):
        comparisons = [
            self.make_comparison(
                {SchemeKind.WRITE_BACK: 100.0, SchemeKind.OSIRIS: 100.0}
            ),
            self.make_comparison(
                {SchemeKind.WRITE_BACK: 100.0, SchemeKind.OSIRIS: 400.0}
            ),
        ]
        averages = average_overheads(comparisons)
        # gmean(1.0, 4.0) = 2.0 -> +100%
        assert averages[SchemeKind.OSIRIS] == pytest.approx(100.0)

    def test_average_overheads_empty(self):
        assert average_overheads([]) == {}
