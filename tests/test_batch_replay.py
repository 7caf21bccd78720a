"""Batched replay is indistinguishable from scalar replay.

The batch engine (:mod:`repro.controller.batch`) vectorizes the
steady-state hot path; its contract is *bit-identical results* — every
statistic, clock, cache line, LRU stamp, NVM byte, and raised error
must match a request-by-request run.  These tests hold it to that
contract across schemes, trees, workload shapes, chunk boundaries and
segmented replays, and unit-test the vectorized helpers against their
scalar counterparts.
"""

from __future__ import annotations

import pytest

from repro.config import BLOCK_SIZE, SchemeKind, TreeKind
from repro.controller.factory import build_controller, build_layout
from repro.crypto.keys import ProcessorKeys
from repro.sim.engine import run_simulation
from repro.sim.result_cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    simulation_cell_key,
)
from repro.telemetry.runtime import TelemetrySpec
from repro.traces.profiles import SyntheticProfile
from repro.traces.replay import replay, replay_batched
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace

from tests.helpers import small_config

KIB = 1024

UNIFORM = SyntheticProfile(
    name="uniform",
    write_fraction=0.5,
    pattern="random",
    footprint_bytes=256 * KIB,
)
HOT_COLD = SyntheticProfile(
    name="hot_cold",
    write_fraction=0.6,
    pattern="hot_cold",
    footprint_bytes=1024 * KIB,
    hot_bytes=128 * KIB,
    hot_fraction=0.85,
    burst_length=4,
)

BONSAI_SCHEMES = [
    SchemeKind.WRITE_BACK,
    SchemeKind.OSIRIS,
    SchemeKind.SELECTIVE,
    SchemeKind.STRICT_PERSISTENCE,
    SchemeKind.AGIT_READ,
    SchemeKind.AGIT_PLUS,
]


def _histogram_state(histogram):
    return (
        histogram.count,
        histogram._mean,
        histogram.maximum,
        tuple(histogram._reservoir),
        histogram._stride,
        histogram._skip,
    )


def _slot_state(cache, encode) -> tuple:
    """Every slot's (valid, address, dirty, stamp, payload) and the clock."""
    return (
        [
            (
                stamp != 0,
                address,
                dirty,
                stamp,
                encode(payload) if stamp else payload,
            )
            for address, payload, dirty, stamp in zip(
                cache._tags, cache._payloads, cache._dirty, cache._stamps
            )
        ],
        cache._clock,
    )


def fingerprint(controller) -> dict:
    """Every observable of a controller, down to LRU stamps."""
    nvm = controller.nvm
    state = {
        "stats": controller.collect_stats(),
        "now": controller.channel.now,
        "busy": controller.channel.busy_until,
        "read_stall": _histogram_state(controller.channel.read_stall),
        "blocks": dict(nvm._blocks),
        "ecc": dict(nvm._ecc),
        "write_counts": dict(nvm._write_counts),
        "wpq": list(controller.wpq.pending_entries()),
    }
    if hasattr(controller, "counter_cache"):
        state["counter_slots"] = _slot_state(
            controller.counter_cache.cache,
            lambda block: (block.major, tuple(block.minors)),
        )
        state["merkle_slots"] = _slot_state(
            controller.merkle_cache.cache, lambda node: node.to_bytes()
        )
        state["root"] = controller.engine.root_node.to_bytes()
    return state


def _run(scheme, tree, profile, run, length=2500):
    controller = build_controller(
        small_config(scheme, tree), keys=ProcessorKeys(7)
    )
    trace = generate_trace(profile, length, seed=41)
    oracle = run(controller, trace)
    return oracle, fingerprint(controller)


class TestBatchScalarIdentity:
    @pytest.mark.parametrize("scheme", BONSAI_SCHEMES)
    def test_bonsai_schemes_uniform(self, scheme):
        oracle_s, state_s = _run(scheme, TreeKind.BONSAI, UNIFORM, replay)
        oracle_b, state_b = _run(
            scheme, TreeKind.BONSAI, UNIFORM, replay_batched
        )
        assert oracle_b == oracle_s
        assert state_b == state_s

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.WRITE_BACK, SchemeKind.OSIRIS]
    )
    def test_bonsai_schemes_hot_cold(self, scheme):
        oracle_s, state_s = _run(scheme, TreeKind.BONSAI, HOT_COLD, replay)
        oracle_b, state_b = _run(
            scheme, TreeKind.BONSAI, HOT_COLD, replay_batched
        )
        assert oracle_b == oracle_s
        assert state_b == state_s

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.WRITE_BACK, SchemeKind.ASIT]
    )
    def test_sgx_tree_falls_back_identically(self, scheme):
        # The batch engine only covers Bonsai; SGX must silently run
        # the scalar path with identical results.
        oracle_s, state_s = _run(scheme, TreeKind.SGX, UNIFORM, replay)
        oracle_b, state_b = _run(
            scheme, TreeKind.SGX, UNIFORM, replay_batched
        )
        assert oracle_b == oracle_s
        assert state_b == state_s


class TestSegmentedReplay:
    def test_start_stop_segments_equal_one_pass(self, monkeypatch):
        # The fault campaign replays segment-by-segment, pausing at
        # snapshot boundaries; the concatenation must equal one pass.
        # Short chunks put chunk boundaries inside the segments too.
        monkeypatch.setattr("repro.controller.batch.DEFAULT_CHUNK", 256)
        trace = generate_trace(UNIFORM, 2500, seed=41)
        whole = build_controller(
            small_config(SchemeKind.OSIRIS), keys=ProcessorKeys(7)
        )
        oracle_whole = replay(whole, trace)

        parts = build_controller(
            small_config(SchemeKind.OSIRIS), keys=ProcessorKeys(7)
        )
        oracle_parts: dict = {}
        position = 0
        for boundary in (1, 137, 1000, 1003, 2400, 2500):
            replay_batched(
                parts, trace, oracle=oracle_parts,
                start=position, stop=boundary,
            )
            position = boundary
        assert oracle_parts == oracle_whole
        assert fingerprint(parts) == fingerprint(whole)

    def test_empty_and_clamped_ranges(self):
        trace = generate_trace(UNIFORM, 100, seed=3)
        controller = build_controller(
            small_config(SchemeKind.WRITE_BACK), keys=ProcessorKeys(7)
        )
        before = fingerprint(controller)
        assert replay_batched(controller, trace, start=50, stop=50) == {}
        assert replay_batched(controller, trace, start=90, stop=10) == {}
        assert fingerprint(controller) == before
        replay_batched(controller, trace, start=-5, stop=10 ** 9)
        reference = build_controller(
            small_config(SchemeKind.WRITE_BACK), keys=ProcessorKeys(7)
        )
        replay(reference, trace)
        assert fingerprint(controller) == fingerprint(reference)


def _scalar_engine(monkeypatch):
    """Make ``run_simulation`` replay through scalar :func:`replay`."""
    monkeypatch.setattr(
        "repro.sim.engine.replay_batched",
        lambda controller, trace: replay(controller, trace),
    )


class TestEngineAndKnob:
    def test_run_simulation_batch_parity(self, monkeypatch):
        config = small_config(SchemeKind.WRITE_BACK)
        trace = generate_trace(UNIFORM, 2000, seed=9)
        batched = run_simulation(config, trace, ProcessorKeys(2))
        _scalar_engine(monkeypatch)
        scalar = run_simulation(config, trace, ProcessorKeys(2))
        assert batched.to_dict() == scalar.to_dict()

    def test_telemetry_runs_force_scalar_with_identical_events(
        self, monkeypatch
    ):
        # A live tracer makes batch_supported() False: the event stream
        # is the full per-access one, as if replayed scalar.
        config = small_config(SchemeKind.OSIRIS)
        trace = generate_trace(UNIFORM, 600, seed=9)
        spec = TelemetrySpec(events=True)
        traced = run_simulation(
            config, trace, ProcessorKeys(2), telemetry=spec
        )
        _scalar_engine(monkeypatch)
        scalar = run_simulation(
            config, trace, ProcessorKeys(2), telemetry=spec
        )
        # The one difference is replay_batched's fallback event, which
        # shifts every later sequence number by one.
        first, *rest = traced.events
        assert (first["kind"], first["reason"]) == (
            "batch.fallback", "telemetry"
        )
        assert [{**e, "seq": e["seq"] - 1} for e in rest] == scalar.events
        assert traced.stats == scalar.stats

    def test_check_reads_runs_scalar_and_verifies(self):
        controller = build_controller(
            small_config(SchemeKind.WRITE_BACK), keys=ProcessorKeys(7)
        )
        trace = generate_trace(UNIFORM, 500, seed=4)
        oracle = replay(controller, trace, check_reads=True)
        reference = build_controller(
            small_config(SchemeKind.WRITE_BACK), keys=ProcessorKeys(7)
        )
        assert replay_batched(reference, trace) == oracle


class TestResultCacheKeys:
    def test_schema_version_bumped_for_stamped_keys(self):
        assert CACHE_SCHEMA_VERSION == 2

    def test_code_stamp_scopes_keys(self, tmp_path):
        plain = ResultCache(str(tmp_path / "a"))
        stamped = ResultCache(str(tmp_path / "b"), code_stamp="rev1")
        stamped_same = ResultCache(str(tmp_path / "c"), code_stamp="rev1")
        stamped_other = ResultCache(str(tmp_path / "d"), code_stamp="rev2")
        parts = ("simulation-result", "digest", 3, None)
        assert stamped.key(*parts) == stamped_same.key(*parts)
        assert stamped.key(*parts) != plain.key(*parts)
        assert stamped.key(*parts) != stamped_other.key(*parts)

    def test_stamped_cache_round_trips(self, tmp_path):
        cache = ResultCache(str(tmp_path), code_stamp="rev1")
        key = cache.key("simulation-result", "x")
        cache.put(key, {"value": 1}, kind="simulation-result")
        assert cache.get(key, kind="simulation-result") == {"value": 1}
        other = ResultCache(str(tmp_path), code_stamp="rev2")
        miss = other.key("simulation-result", "x")
        assert miss != key
        assert other.get(miss, kind="simulation-result") is None


class TestVectorizedHelpers:
    def test_decompose_batch_matches_scalar(self):
        np = pytest.importorskip("numpy")
        layout = build_layout(small_config())
        addresses = np.array(
            [
                0,
                64,
                4096,
                layout.data.end - BLOCK_SIZE,
                layout.data.end,  # out of range
                -64,  # negative
                65,  # misaligned
                BLOCK_SIZE * 1000,
            ],
            dtype=np.int64,
        )
        valid, caddr, cslot, cindex = layout.decompose_batch(addresses)
        for j, address in enumerate(addresses.tolist()):
            if valid[j]:
                assert caddr[j] == layout.counter_block_for(address)
                assert cslot[j] == layout.counter_slot_for(address)
            else:
                with pytest.raises(Exception):
                    layout.check_data_address(address)

    def test_classify_chunk_matches_contains(self):
        np = pytest.importorskip("numpy")
        controller = build_controller(
            small_config(), keys=ProcessorKeys(1)
        )
        trace = generate_trace(UNIFORM, 400, seed=8)
        replay(controller, trace)
        cache = controller.counter_cache
        probe = np.array(
            [request.address for request in trace][:200], dtype=np.int64
        )
        counters = np.array(
            [
                controller.layout.counter_block_for(int(address))
                for address in probe.tolist()
            ],
            dtype=np.int64,
        )
        resident = cache.classify_chunk(counters)
        for j, address in enumerate(counters.tolist()):
            assert bool(resident[j]) == cache.contains(address)

    def test_to_columns_round_trip(self):
        trace = generate_trace(HOT_COLD, 300, seed=5)
        columns = trace.to_columns()
        if columns is None:
            pytest.skip("numpy unavailable")
        assert columns.length == len(trace)
        rebuilt = Trace.from_columns(trace.name, columns)
        assert list(rebuilt) == list(trace)
        assert list(trace.iter_range(50, 120)) == list(trace)[50:120]

    def test_encode_lines_matches_encode_line(self):
        controller = build_controller(small_config(), keys=ProcessorKeys(1))
        ecc = controller.ecc_codec
        lines = [bytes([tag] * BLOCK_SIZE) for tag in range(17)]
        assert ecc.encode_lines(lines) == [
            ecc.encode_line(line) for line in lines
        ]
