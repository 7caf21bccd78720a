"""Batched replay is indistinguishable from scalar replay.

The batch engine (:mod:`repro.controller.batch`) inlines the
steady-state hot path; its contract is *bit-identical results* — every
statistic, clock, cache line, LRU stamp, NVM byte, and raised error
must match a request-by-request run.  These tests hold it to that
contract across schemes, trees, workload shapes, invalid addresses and
segmented replays (with ASIT crash recovery at every pause), and check
that the fast path carries most of Fig. 10's accesses and most accesses
of Fig. 11's high-hit benchmarks.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.config import (
    CacheConfig,
    CounterRecoveryKind,
    SchemeKind,
    TreeKind,
    default_table1_config,
)
from repro.controller.access import MemoryRequest, Op
from repro.controller.batch import scalar_fallback_reason
from repro.controller.factory import build_controller, build_layout
from repro.core.recovery_asit import AsitRecovery
from repro.crypto.keys import ProcessorKeys
from repro.errors import IntegrityError
from repro.experiments import fig10_agit_perf, fig11_asit_perf
from repro.recovery.crash import capture_chip_state, restore_chip_state
from repro.sim.engine import run_simulation
from repro.telemetry.runtime import TelemetrySpec
from repro.traces.profiles import SyntheticProfile, profile, profile_names
from repro.traces.replay import replay, replay_batched
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace

from tests.helpers import KIB, MIB, SMALL_CACHE, SMALL_MEMORY, small_config

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

#: Fig. 11's streaming benchmark: long runs of rewrites to few leaves.
LBM = profile("lbm")
#: Fig. 11's miss-bound benchmark: almost every access misses its leaf.
MCF = profile("mcf")

SGX_SCHEMES = [
    SchemeKind.WRITE_BACK,
    SchemeKind.STRICT_PERSISTENCE,
    SchemeKind.OSIRIS,
    SchemeKind.ASIT,
]

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
    stats = controller.collect_stats()
    for name in ("counter_cache", "merkle_cache", "metadata_cache"):
        cache = getattr(controller, name, None)
        if cache is not None:
            cache.stats.merge_into(stats)
    state = {
        "stats": stats,
        "now": controller.channel.now,
        "busy": controller.channel.busy_until,
        "read_stall": _histogram_state(controller.channel.read_stall),
        "blocks": dict(nvm._blocks),
        "ecc": dict(nvm._ecc),
        "write_counts": dict(nvm._write_counts),
        "wpq": list(controller.wpq.pending_entries()),
    }
    if hasattr(controller, "counter_cache"):
        # Both replays must leave the same deferred tree updates
        # unsettled; the node bytes and the root are then compared
        # settled, as anything outside the controller observes them.
        state["stale"] = (
            sorted(controller._stale_counters),
            sorted(controller._stale_nodes.items()),
        )
        controller.settle()
        state["counter_slots"] = _slot_state(
            controller.counter_cache,
            lambda block: (block.major, tuple(block.minors)),
        )
        state["merkle_slots"] = _slot_state(
            controller.merkle_cache, lambda node: node.to_bytes()
        )
        state["root"] = controller.engine.root_node.to_bytes()
    else:
        state["metadata_slots"] = _slot_state(
            controller.metadata_cache,
            lambda record: (
                record.node.to_bytes(),
                record.parent_nonce,
                record.level,
                record.index,
            ),
        )
        state["root"] = controller.engine.root_block.to_bytes()
        if hasattr(controller, "st_entries"):
            state["st_entries"] = list(controller.st_entries)
            state["shadow_tree_root"] = controller.shadow_tree_root
    return state


def _config(scheme, tree, profile, cache_bytes=SMALL_CACHE):
    """The small system, grown to hold the profile's footprint."""
    return small_config(
        scheme, tree, cache_bytes=cache_bytes,
        memory_bytes=max(SMALL_MEMORY, profile.footprint_bytes),
    )


def _run(scheme, tree, profile, run, length=2500, cache_bytes=SMALL_CACHE):
    controller = build_controller(
        _config(scheme, tree, profile, cache_bytes), keys=ProcessorKeys(7)
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
        "scheme",
        [
            SchemeKind.WRITE_BACK,
            SchemeKind.OSIRIS,
            SchemeKind.STRICT_PERSISTENCE,
        ],
    )
    def test_bonsai_schemes_hot_cold(self, scheme):
        oracle_s, state_s = _run(scheme, TreeKind.BONSAI, HOT_COLD, replay)
        oracle_b, state_b = _run(
            scheme, TreeKind.BONSAI, HOT_COLD, replay_batched
        )
        assert oracle_b == oracle_s
        assert state_b == state_s

    @pytest.mark.parametrize("scheme", SGX_SCHEMES)
    @pytest.mark.parametrize(
        "workload, cache_bytes",
        [
            (UNIFORM, SMALL_CACHE),
            (HOT_COLD, SMALL_CACHE),
            (LBM, SMALL_CACHE),
            (MCF, SMALL_CACHE),
            (MCF, 2 * KIB),
        ],
        ids=["uniform", "hot_cold", "lbm", "mcf", "mcf-2KiB"],
    )
    def test_sgx_schemes(self, workload, cache_bytes, scheme):
        # The window serves leaf misses whose walk it can replay; the
        # inputs between them make it refuse a dirty victim, verify
        # written chain nodes, refuse a strict victim on the write's
        # own path or a non-resident stored ancestor, settle a victim's
        # placeholder and evict a node its own walk filled (lbm, mcf at
        # 2 KiB).
        oracle_s, state_s = _run(
            scheme, TreeKind.SGX, workload, replay, cache_bytes=cache_bytes
        )
        oracle_b, state_b = _run(
            scheme, TreeKind.SGX, workload, replay_batched,
            cache_bytes=cache_bytes,
        )
        assert oracle_b == oracle_s
        assert state_b == state_s


class TestSgxWriteRefetchesEvictedLeaf:
    """A write's leaf fill can drain a dirty victim whose parent fetch
    evicts the leaf just filled; the write must fetch the leaf again
    rather than update a block that is no longer cached."""

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.WRITE_BACK, SchemeKind.OSIRIS, SchemeKind.ASIT]
    )
    @pytest.mark.parametrize(
        "workload, cache_bytes, ways",
        [
            (HOT_COLD, 2 * KIB, 4),
            (UNIFORM, SMALL_CACHE, 1),
            (HOT_COLD, SMALL_CACHE, 1),
        ],
        ids=["hot_cold-2KiB", "uniform-1way", "hot_cold-1way"],
    )
    def test_small_caches_replay(self, workload, cache_bytes, ways, scheme):
        cache = CacheConfig(cache_bytes, ways=ways)
        config = dataclasses.replace(
            _config(scheme, TreeKind.SGX, workload),
            counter_cache=cache,
            merkle_cache=cache,
        )
        trace = generate_trace(workload, 2500, seed=41)
        states = []
        for check_reads in (True, False):
            controller = build_controller(config, keys=ProcessorKeys(7))
            if check_reads:
                replay(controller, trace, check_reads=True)
            else:
                replay_batched(controller, trace)
            states.append(fingerprint(controller))
        assert states[1] == states[0]


def _crash_and_recover(controller, oracle) -> tuple:
    """Crash a fork of ``controller``'s persistent domain, as a fault
    campaign does at a pause, reincarnate it and run ASIT recovery.

    Returns the report's counts and analytic phase times, the reborn
    controller's fingerprint and whether every line reads back as the
    oracle holds it; the live controller is left untouched.
    """
    nvm = controller.nvm.snapshot()
    for address, block, sideband in controller.wpq.pending_entries():
        nvm.write(address, block)
        if sideband is not None:
            nvm.write_ecc(address, sideband)
    reborn = build_controller(
        controller.config, keys=controller.keys, nvm=nvm,
        layout=controller.layout,
    )
    restore_chip_state(reborn, capture_chip_state(controller))
    report = AsitRecovery(nvm, reborn.layout, reborn).run()
    counts = dataclasses.replace(report, phases=[])
    state = fingerprint(reborn)
    reads_back = all(
        reborn.read(address) == block for address, block in oracle.items()
    )
    return counts, report.breakdown_seconds(), state, reads_back


def _assert_asit_wraps_replay_identically(workload, lsb_bits):
    """ASIT with ``lsb_bits``-bit Shadow Table fields replays batched
    exactly as scalar, and some LSB wrap persisted a node."""
    config = _config(SchemeKind.ASIT, TreeKind.SGX, workload)
    config = dataclasses.replace(
        config,
        anubis=dataclasses.replace(config.anubis, asit_lsb_bits=lsb_bits),
    )
    trace = generate_trace(workload, 2500, seed=41)
    outcomes = []
    for run in (replay, replay_batched):
        controller = build_controller(config, keys=ProcessorKeys(7))
        outcomes.append((run(controller, trace), fingerprint(controller)))
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][1]["stats"]["ctrl.lsb_overflow_persists"] > 0


class TestSegmentedReplay:
    def test_start_stop_segments_equal_one_pass(self):
        # The fault campaign replays segment-by-segment, pausing at
        # snapshot boundaries; the concatenation must equal one pass.
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

    def test_strict_segments_match_scalar_at_every_pause(self):
        # Strict persistence queues ancestors whose bytes are written
        # before every real call; at every pause NVM, WPQ, LRU stamps
        # and root must already be what scalar replay leaves there.
        trace = generate_trace(HOT_COLD, 2500, seed=41)
        config = small_config(SchemeKind.STRICT_PERSISTENCE)
        scalar = build_controller(config, keys=ProcessorKeys(7))
        batched = build_controller(config, keys=ProcessorKeys(7))
        real_writes = []
        real_write = batched.write

        def counting_write(address, data):
            real_writes.append(address)
            real_write(address, data)

        batched.write = counting_write
        oracle_s: dict = {}
        oracle_b: dict = {}
        position = 0
        for boundary in (1, 137, 1000, 1003, 2400, 2500):
            replay(
                scalar, trace, oracle=oracle_s,
                start=position, stop=boundary,
            )
            replay_batched(
                batched, trace, oracle=oracle_b,
                start=position, stop=boundary,
            )
            position = boundary
            assert oracle_b == oracle_s
            assert fingerprint(batched) == fingerprint(scalar)
        # The fast path carried most writes; the rest (misses, each
        # segment's final write) ran scalar.
        assert 0 < len(real_writes) < sum(trace.is_write) // 2

    @pytest.mark.parametrize("scheme", SGX_SCHEMES)
    def test_sgx_segments_match_scalar_at_every_pause(self, scheme):
        # Strict and ASIT writes queue placeholders whose bytes are
        # written before every real call and each range's final write
        # runs scalar: at every pause NVM, the WPQ, the caches, the
        # root block and ASIT's Shadow Table must already be scalar's,
        # and an ASIT crash there must recover exactly as scalar's.
        trace = generate_trace(HOT_COLD, 2500, seed=41)
        config = _config(scheme, TreeKind.SGX, HOT_COLD)
        scalar = build_controller(config, keys=ProcessorKeys(7))
        batched = build_controller(config, keys=ProcessorKeys(7))
        oracle_s: dict = {}
        oracle_b: dict = {}
        position = 0
        for boundary in (1, 137, 1000, 1003, 2400, 2500):
            replay(
                scalar, trace, oracle=oracle_s,
                start=position, stop=boundary,
            )
            replay_batched(
                batched, trace, oracle=oracle_b,
                start=position, stop=boundary,
            )
            position = boundary
            assert oracle_b == oracle_s
            assert fingerprint(batched) == fingerprint(scalar)
            if scheme == SchemeKind.ASIT:
                recovered = _crash_and_recover(batched, oracle_b)
                assert recovered[-1], "recovered lines must read back"
                assert recovered == _crash_and_recover(scalar, oracle_s)

    @pytest.mark.parametrize("scheme", SGX_SCHEMES)
    @pytest.mark.parametrize("damage", ["tamper", "lost_writeback"])
    def test_damaged_sgx_node_fails_at_same_access(self, damage, scheme):
        # At a pause, a written tree node that is not resident is
        # tampered with (one flipped nonce bit) or loses its write-back
        # (NVM forgets it, so it reads as the default node under a
        # non-zero nonce).  Its next fetch fails its MAC check: the
        # window's planned walk must leave that access to the scalar
        # walk, which raises at the same access with the same state.
        trace = generate_trace(UNIFORM, 2500, seed=41)
        config = _config(scheme, TreeKind.SGX, UNIFORM)
        outcomes = []
        for run in (replay, replay_batched):
            controller = build_controller(config, keys=ProcessorKeys(7))
            oracle = run(controller, trace, stop=1250)
            layout = controller.layout
            leaves = set()
            for index in range(1250, len(trace)):
                leaf = layout.counter_block_for(trace.addresses[index])
                if leaf in leaves:
                    continue
                leaves.add(leaf)
                if (
                    leaf in controller.nvm._blocks
                    and not controller.metadata_cache.contains(leaf)
                ):
                    break
            else:
                pytest.fail("no written, evicted leaf is fetched again")
            if damage == "tamper":
                raw = bytearray(controller.nvm._blocks[leaf])
                raw[0] ^= 1
                controller.nvm.poke(leaf, bytes(raw))
            else:
                del controller.nvm._blocks[leaf]
            with pytest.raises(IntegrityError) as raised:
                run(controller, trace, oracle, start=1250)
            outcomes.append(
                (leaf, str(raised.value), oracle, fingerprint(controller))
            )
        assert f"SGX node MAC mismatch at {outcomes[0][0]:#x}" in (
            outcomes[0][1]
        )
        assert outcomes[1] == outcomes[0]

    def test_asit_lsb_wraps_take_the_real_call(self):
        # With 2-bit LSB fields every fourth bump of a counter wraps
        # them, and ASIT persists the node: the window's pre-increment
        # guard sends exactly those writes to the scalar path.
        _assert_asit_wraps_replay_identically(HOT_COLD, lsb_bits=2)

    def test_asit_wrap_on_a_fetched_leaf_takes_the_real_call(self):
        # With 1-bit fields every other bump wraps, so some written-back
        # leaves are fetched one bump short of a wrap: the guard must
        # refuse such a write before the window replays the leaf's walk.
        _assert_asit_wraps_replay_identically(UNIFORM, lsb_bits=1)

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


class TestStrictRefusals:
    @pytest.mark.parametrize(
        "overrides",
        [{"wpq_entries": 4}],
        ids=["wpq4"],
    )
    def test_refused_configs_replay_identically(self, overrides):
        # A 4-entry WPQ cannot take the small tree's 5-entry persist
        # group without an overflow drain, so it must replay scalar.
        config = dataclasses.replace(
            small_config(SchemeKind.STRICT_PERSISTENCE), **overrides
        )
        trace = generate_trace(UNIFORM, 1500, seed=41)
        outcomes = []
        for run in (replay, replay_batched):
            controller = build_controller(config, keys=ProcessorKeys(7))
            assert scalar_fallback_reason(controller) == "strict_persistence"
            outcomes.append((run(controller, trace), fingerprint(controller)))
        assert outcomes[1] == outcomes[0]


#: Fig. 7's system: Table-1 with 8 KiB metadata caches.
FIG07_CACHE = 8 * KIB


def _table1(scheme, cache_bytes=None):
    config = default_table1_config(scheme, TreeKind.BONSAI)
    return config if cache_bytes is None else config.with_cache_size(
        cache_bytes
    )


class TestBonsaiMissPlanner:
    @pytest.mark.parametrize("scheme", BONSAI_SCHEMES)
    @pytest.mark.parametrize(
        "cache_bytes", [None, FIG07_CACHE], ids=["table1", "fig07"]
    )
    @pytest.mark.parametrize("name", ["mcf", "omnetpp", "soplex"])
    def test_miss_bound_cells_match_scalar(self, name, cache_bytes, scheme):
        # The window plans counter-block misses and replays their walks;
        # at Fig. 7's 8 KiB caches dirty and stale victims, strict
        # victims on a write's own path and written chain nodes come up
        # between them.
        trace = generate_trace(profile(name), 2000, seed=0)
        outcomes = []
        for run in (replay, replay_batched):
            controller = build_controller(
                _table1(scheme, cache_bytes), keys=ProcessorKeys(0)
            )
            outcomes.append((run(controller, trace), fingerprint(controller)))
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize(
        "scheme",
        [SchemeKind.WRITE_BACK, SchemeKind.STRICT_PERSISTENCE,
         SchemeKind.AGIT_READ],
    )
    @pytest.mark.parametrize("level", [0, 1], ids=["counter", "ancestor"])
    @pytest.mark.parametrize("damage", ["tamper", "lost"])
    def test_damaged_block_fails_at_same_access(self, damage, level, scheme):
        # At a pause, a written counter block (level 0) or level-1 tree
        # node that is not resident is tampered with (one flipped bit)
        # or loses its write-back (it reads as never written).  Its next
        # fetch fails its hash check: the planner must leave that access
        # to the scalar walk, which raises at the same access with the
        # same state behind it.
        trace = generate_trace(HOT_COLD, 3000, seed=41)
        config = _config(scheme, TreeKind.BONSAI, HOT_COLD, 2 * KIB)
        outcomes = []
        for run in (replay, replay_batched):
            controller = build_controller(config, keys=ProcessorKeys(7))
            oracle = run(controller, trace, stop=1500)
            layout = controller.layout
            cache = (
                controller.merkle_cache if level else
                controller.counter_cache
            )
            blocks = controller.nvm._blocks
            upcoming = [
                layout.counter_block_for(trace.addresses[index])
                for index in range(1500, len(trace))
            ]
            if level:
                upcoming = [
                    layout.ancestors_of_counter(block)[0]
                    for block in upcoming
                ]
            target = next(
                block for block in upcoming
                if block in blocks and not cache.contains(block)
            )
            if damage == "tamper":
                raw = bytearray(blocks[target])
                raw[0] ^= 1
                controller.nvm.poke(target, bytes(raw))
            else:
                del blocks[target]
            with pytest.raises(IntegrityError) as raised:
                run(controller, trace, oracle, start=1500)
            outcomes.append(
                (target, str(raised.value), oracle, fingerprint(controller))
            )
        assert f"Merkle verification failed for block {outcomes[0][0]:#x}" \
            in outcomes[0][1]
        assert outcomes[1] == outcomes[0]


    @pytest.mark.parametrize(
        "scheme", [SchemeKind.WRITE_BACK, SchemeKind.AGIT_PLUS]
    )
    def test_write_miss_one_bump_short_of_overflow_takes_the_real_call(
        self, scheme
    ):
        # A line written 127 times holds the largest 7-bit minor; its
        # counter block is then evicted by a conflicting one and
        # fetched again by the next write, which overflows the minor
        # and re-encrypts the page.  The planner must refuse that write
        # before it replays the fill.
        config = dataclasses.replace(
            small_config(scheme),
            counter_cache=CacheConfig(size_bytes=16 * 64, ways=1),
        )
        conflicting = 16 * 64 * 64  # 16 counter blocks on: same set
        requests = [
            MemoryRequest(Op.WRITE, 0, bytes([n]) * 64, 10.0)
            for n in range(127)
        ]
        requests.append(MemoryRequest(Op.READ, conflicting, None, 10.0))
        requests.append(MemoryRequest(Op.WRITE, 0, bytes(64), 10.0))
        requests.append(MemoryRequest(Op.READ, 64, None, 10.0))
        trace = Trace("overflow_after_refetch", requests)
        outcomes = []
        for run in (replay, replay_batched):
            controller = build_controller(config, keys=ProcessorKeys(7))
            outcomes.append((run(controller, trace), fingerprint(controller)))
        assert outcomes[1] == outcomes[0]
        assert outcomes[0][1]["stats"]["ctrl.page_reencryptions"] == 1


class TestWpqPressure:
    def test_agit_plus_group_larger_than_the_wpq_replays_scalar(self):
        # An AGIT-Plus write that first-dirties its counter block and
        # three ancestors queues four shadow entries before its data
        # line, so a 4-entry WPQ drains one entry at the data insert.
        # The window inserts inline and never drains mid-access, so
        # AGIT on a WPQ shallower than its group replays scalar.
        workload = dataclasses.replace(UNIFORM, footprint_bytes=4 * MIB)
        config = dataclasses.replace(
            _config(SchemeKind.AGIT_PLUS, TreeKind.BONSAI, workload,
                    cache_bytes=4 * KIB),
            wpq_entries=4,
        )
        rng = random.Random(0)
        requests = []
        for _pair in range(800):
            address = rng.randrange(4 * MIB // 64) * 64
            requests.append(MemoryRequest(Op.READ, address, None, 10.0))
            requests.append(
                MemoryRequest(Op.WRITE, address, rng.randbytes(64), 10.0)
            )
        trace = Trace("read_then_write", requests)
        outcomes = []
        for run in (replay, replay_batched):
            controller = build_controller(config, keys=ProcessorKeys(7))
            assert scalar_fallback_reason(controller) == "wpq"
            outcomes.append((run(controller, trace), fingerprint(controller)))
        assert outcomes[1] == outcomes[0]


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


class TestSharedTraceSeals:
    """Serial figure runs replay one trace under many cells, which share
    the trace's seal memo (:meth:`~repro.traces.trace.Trace.seal_memo`):
    per key set and tree family, an entry is used only when the write's
    counter is the one it was sealed under."""

    def _cell(self, trace, config, keys, passes=1):
        """Batched replay of ``trace`` against scalar replay of a fresh
        copy, ``passes`` times through one controller each."""
        batched = build_controller(config, keys=keys)
        scalar = build_controller(config, keys=keys)
        fresh = Trace(trace.name, trace)
        for _ in range(passes):
            oracle_b = replay_batched(batched, trace)
            oracle_s = replay(scalar, fresh)
            assert oracle_b == oracle_s
            assert fingerprint(batched) == fingerprint(scalar)

    def test_cells_sharing_one_trace_match_scalar(self):
        trace = generate_trace(HOT_COLD, 1500, seed=5)
        phase = dataclasses.replace(
            small_config().encryption,
            counter_recovery=CounterRecoveryKind.PHASE,
        )
        for seed in (7, 8):
            keys = ProcessorKeys(seed)
            # Fig. 10, then Fig. 11, on one trace.
            for scheme in fig10_agit_perf.SCHEMES:
                self._cell(
                    trace, _config(scheme, TreeKind.BONSAI, HOT_COLD), keys
                )
            for scheme in fig11_asit_perf.SCHEMES:
                self._cell(trace, _config(scheme, TreeKind.SGX, HOT_COLD), keys)
            # Fig. 12: AGIT-Plus (phase bytes) and ASIT alternate over
            # cache sizes, so both families' entries are reused.
            for cache_bytes in (4 * KIB, 8 * KIB):
                agit = _config(
                    SchemeKind.AGIT_PLUS, TreeKind.BONSAI, HOT_COLD,
                    cache_bytes,
                )
                self._cell(
                    trace, dataclasses.replace(agit, encryption=phase), keys
                )
                self._cell(
                    trace,
                    _config(SchemeKind.ASIT, TreeKind.SGX, HOT_COLD,
                            cache_bytes),
                    keys,
                )
            # A second pass writes every line under later counters than
            # the entries hold.
            self._cell(
                trace,
                _config(SchemeKind.WRITE_BACK, TreeKind.BONSAI, HOT_COLD),
                keys,
                passes=2,
            )
        # A grown trace's positions start with no entries.
        trace.append(MemoryRequest(Op.WRITE, 0, bytes(range(64)), 10.0))
        self._cell(
            trace,
            _config(SchemeKind.WRITE_BACK, TreeKind.BONSAI, HOT_COLD),
            ProcessorKeys(7),
        )

    def test_memo_is_invisible(self):
        trace = generate_trace(HOT_COLD, 600, seed=5)
        for tree, scheme in (
            (TreeKind.BONSAI, SchemeKind.WRITE_BACK),
            (TreeKind.SGX, SchemeKind.ASIT),
        ):
            replay_batched(
                build_controller(
                    _config(scheme, tree, HOT_COLD), keys=ProcessorKeys(7)
                ),
                trace,
            )
        assert len(trace.seal_memo()) == 2
        fresh = generate_trace(HOT_COLD, 600, seed=5)
        assert pickle.dumps(trace) == pickle.dumps(fresh)
        assert trace == fresh
        assert trace.content_digest() == fresh.content_digest()
        assert pickle.loads(pickle.dumps(trace)).seal_memo() == {}


_INVALID = [
    (Op.WRITE, "misaligned"), (Op.READ, "out_of_range"), (Op.WRITE, "negative")
]


class TestInvalidAddresses:
    @pytest.mark.parametrize(
        "op, where, tree",
        [(op, where, TreeKind.BONSAI) for op, where in _INVALID]
        + [(op, where, TreeKind.SGX) for op, where in _INVALID],
        ids=[f"{op}-{where}" for op, where in _INVALID]
        + [f"sgx-{op}-{where}" for op, where in _INVALID],
    )
    def test_same_error_at_same_access(self, op, where, tree):
        # An invalid address mid-trace raises the scalar path's error
        # from the batch engine, at the same access, leaving the same
        # controller state behind (Osiris on Bonsai, ASIT on SGX).
        scheme = {
            TreeKind.BONSAI: SchemeKind.OSIRIS, TreeKind.SGX: SchemeKind.ASIT
        }[tree]
        config = small_config(scheme, tree)
        layout = build_layout(config)
        address = {
            "misaligned": 65,
            "out_of_range": layout.data.end,
            "negative": -64,
        }[where]
        bad = MemoryRequest(
            op=op,
            address=address,
            data=bytes(64) if op is Op.WRITE else None,
        )
        requests = list(generate_trace(UNIFORM, 2500, seed=41))
        trace = Trace("invalid", requests[:1200] + [bad] + requests[1200:])
        outcomes = []
        for run in (replay, replay_batched):
            controller = build_controller(config, keys=ProcessorKeys(7))
            oracle: dict = {}
            with pytest.raises(Exception) as raised:
                run(controller, trace, oracle)
            outcomes.append(
                (type(raised.value), str(raised.value), oracle,
                 fingerprint(controller))
            )
        assert outcomes[1] == outcomes[0]
        # The error came at the bad access: the oracle holds exactly
        # the writes that precede it.
        assert outcomes[0][2] == replay(
            build_controller(config, keys=ProcessorKeys(7)),
            Trace("prefix", requests[:1200]),
        )

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.WRITE_BACK, SchemeKind.ASIT]
    )
    def test_sgx_lost_write_fails_at_same_access(self, scheme):
        # A data line whose write never reached NVM, read back while its
        # leaf is resident with a nonzero counter: the window raises the
        # scalar read's IntegrityError, at the same access, with the
        # same state behind it.
        trace = generate_trace(HOT_COLD, 2500, seed=41)
        config = _config(scheme, TreeKind.SGX, HOT_COLD)
        outcomes = []
        for run in (replay, replay_batched):
            controller = build_controller(config, keys=ProcessorKeys(7))
            oracle = run(controller, trace, stop=1250)
            lost = next(
                trace.addresses[index]
                for index in range(1250, len(trace))
                if not trace.is_write[index]
                and trace.addresses[index] in oracle
            )
            del controller.nvm._blocks[lost]
            with pytest.raises(IntegrityError) as raised:
                run(controller, trace, oracle, start=1250)
            outcomes.append(
                (lost, str(raised.value), oracle, fingerprint(controller))
            )
        assert "NVM holds no data" in outcomes[0][1]
        assert outcomes[1] == outcomes[0]


def _carried_shares(tree, schemes, names, length) -> dict:
    """The share of each Table-1 cell's accesses that the window
    carries: the accesses that never reach ``controller.read``/
    ``.write``, the per-access fallback ``run_batched_range`` takes
    (scalar replay reaches them through ``access()``)."""
    shares = {}
    for name in names:
        trace = generate_trace(profile(name), length, seed=0)
        for scheme in schemes:
            controller = build_controller(
                default_table1_config(scheme, tree), keys=ProcessorKeys(0)
            )
            assert scalar_fallback_reason(controller) is None
            read, write = controller.read, controller.write
            fallbacks = 0

            def counting_read(address):
                nonlocal fallbacks
                fallbacks += 1
                return read(address)

            def counting_write(address, data):
                nonlocal fallbacks
                fallbacks += 1
                write(address, data)

            controller.read = counting_read
            controller.write = counting_write
            replay_batched(controller, trace)
            shares[name, scheme] = 1 - fallbacks / len(trace)
    return shares


def _per_scheme(shares, schemes) -> dict:
    """Each scheme's share over all its cells (equal-length traces)."""
    return {
        scheme: sum(
            share for (_name, cell), share in shares.items()
            if cell == scheme
        ) / sum(1 for _name, cell in shares if cell == scheme)
        for scheme in schemes
    }


class TestCarriedShare:
    def test_fast_path_carries_most_fig10_accesses(self):
        # The batch engine's reason to exist: on Fig. 10's Table-1
        # cells most accesses never reach the scalar controller.
        # Misses, evictions and overflows fall back, and how often is
        # uneven per benchmark (omnetpp falls back on nearly every
        # access, the streaming profiles on about 1%), so the floor is
        # per scheme.
        schemes = fig10_agit_perf.SCHEMES
        carried = _per_scheme(
            _carried_shares(TreeKind.BONSAI, schemes, profile_names(), 2000),
            schemes,
        )
        assert all(share >= 0.60 for share in carried.values()), carried

    def test_window_carries_most_fig11_high_hit_accesses(self):
        # The SGX hit window runs where Fig. 11's leaf version blocks
        # stay resident: the six benchmarks whose leaf-hit rate is at
        # least 0.86.  Dirty victims, evictions and each range's final
        # strict or ASIT write take the real call.
        schemes = fig11_asit_perf.SCHEMES
        carried = _per_scheme(
            _carried_shares(
                TreeKind.SGX, schemes,
                ("lbm", "libquantum", "milc", "bwaves", "gems", "leslie3d"),
                2000,
            ),
            schemes,
        )
        # Every scheme reads 0.881 at 2,000 accesses per benchmark.
        assert all(share >= 0.85 for share in carried.values()), carried

    def test_window_carries_miss_bound_fig11_accesses(self):
        # Fig. 11's miss-bound benchmarks miss their leaf on most
        # accesses; the window serves those misses whose walk fills
        # never-written or verified nodes over clean victims.  Dirty
        # victims take the real call; they grow with the trace (about a
        # third of omnetpp's accesses at 30,000).
        carried = _carried_shares(
            TreeKind.SGX, fig11_asit_perf.SCHEMES,
            ("mcf", "gcc", "soplex", "omnetpp"), 4000,
        )
        # Each cell reads 0.953 (omnetpp) to 1.000 at 4,000 accesses.
        assert all(share >= 0.9 for share in carried.values()), carried

    def test_window_carries_miss_bound_fig10_accesses(self):
        # Fig. 10's miss-bound cells miss their counter block on most
        # accesses; the window serves every miss whose walk it can
        # replay (clean, non-stale victims), AGIT-Read's fill hooks
        # included.
        carried = _carried_shares(
            TreeKind.BONSAI, fig10_agit_perf.SCHEMES, ("mcf", "omnetpp"),
            4000,
        )
        # Each cell reads 0.983 to 0.9995 at 4,000 accesses.
        assert all(share >= 0.95 for share in carried.values()), carried
