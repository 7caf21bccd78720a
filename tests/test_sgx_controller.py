"""Behavioral tests for the SGX-style secure memory controller."""

import pytest

from repro.config import SchemeKind, TreeKind
from repro.counters.sgx import SgxCounterBlock
from repro.crypto.keys import ProcessorKeys
from repro.errors import IntegrityError

from tests.helpers import line, make_controller, payload


def make_sgx(scheme=SchemeKind.WRITE_BACK, **kwargs):
    return make_controller(scheme, TreeKind.SGX, **kwargs)


class TestReadWritePath:
    def test_unwritten_reads_zero(self, sgx_controller):
        assert sgx_controller.read(line(0)) == bytes(64)

    def test_write_then_read(self, sgx_controller):
        sgx_controller.write(line(3), payload(1))
        assert sgx_controller.read(line(3)) == payload(1)

    def test_overwrite(self, sgx_controller):
        sgx_controller.write(line(3), payload(1))
        sgx_controller.write(line(3), payload(2))
        assert sgx_controller.read(line(3)) == payload(2)

    def test_data_stored_encrypted(self, sgx_controller):
        sgx_controller.write(line(0), payload(1))
        sgx_controller.wpq.drain_all()
        assert sgx_controller.nvm.peek(0) != payload(1)

    def test_counter_increments(self, sgx_controller):
        leaf = sgx_controller.layout.counter_block_for(line(0))
        sgx_controller.write(line(0), payload(1))
        sgx_controller.write(line(0), payload(2))
        record = sgx_controller.metadata_cache.peek(leaf)
        assert record.node.counter(0) == 2

    def test_eight_lines_share_version_block(self, sgx_controller):
        layout = sgx_controller.layout
        assert layout.counter_block_for(line(0)) == layout.counter_block_for(
            line(7)
        )
        assert layout.counter_block_for(line(0)) != layout.counter_block_for(
            line(8)
        )


class TestLazyProtocol:
    def test_write_does_not_touch_root(self, sgx_controller):
        before = list(sgx_controller.engine.root_block.counters)
        sgx_controller.write(line(0), payload(1))
        assert sgx_controller.engine.root_block.counters == before

    def test_dirty_eviction_bumps_parent_nonce(self, sgx_controller):
        layout = sgx_controller.layout
        leaf = layout.counter_block_for(line(0))
        sgx_controller.write(line(0), payload(1))
        level, index = layout.locate_node(leaf)
        parent_level, parent_index = layout.parent_of(level, index)
        parent_address = layout.node_address(parent_level, parent_index)
        slot = layout.child_slot(index)
        # force the leaf out
        eviction = sgx_controller.metadata_cache.invalidate(leaf)
        sgx_controller._evictions.append(eviction)
        sgx_controller._drain_evictions()
        parent = sgx_controller.metadata_cache.peek(parent_address)
        assert parent.node.counter(slot) == 1

    def test_clean_eviction_does_not_bump(self, sgx_controller):
        layout = sgx_controller.layout
        leaf = layout.counter_block_for(line(0))
        sgx_controller.read(line(0))  # clean fill
        eviction = sgx_controller.metadata_cache.invalidate(leaf)
        sgx_controller._evictions.append(eviction)
        sgx_controller._drain_evictions()
        level, index = layout.locate_node(leaf)
        parent_level, parent_index = layout.parent_of(level, index)
        parent = sgx_controller.metadata_cache.peek(
            layout.node_address(parent_level, parent_index)
        )
        if parent is not None:
            assert parent.node.counter(layout.child_slot(index)) == 0

    def test_refetch_after_eviction_verifies(self):
        controller = make_sgx()
        lines = [line(index * 8) for index in range(400)]  # distinct blocks
        for index, address in enumerate(lines):
            controller.write(address, payload(index % 250))
        for index, address in enumerate(lines):
            assert controller.read(address) == payload(index % 250)

    def test_replayed_stale_node_detected(self):
        controller = make_sgx()
        leaf = controller.layout.counter_block_for(line(0))
        controller.write(line(0), payload(1))
        controller.writeback_all()
        stale = controller.nvm.peek(leaf)
        controller.write(line(0), payload(2))
        controller.writeback_all()
        controller.nvm.poke(leaf, stale)  # replay the older sealed copy
        controller.metadata_cache.drop_all_volatile()
        with pytest.raises(IntegrityError):
            controller.read(line(0))

    def test_tampered_node_detected(self):
        controller = make_sgx()
        leaf = controller.layout.counter_block_for(line(0))
        controller.write(line(0), payload(1))
        controller.writeback_all()
        raw = bytearray(controller.nvm.peek(leaf))
        raw[0] ^= 1
        controller.nvm.poke(leaf, bytes(raw))
        controller.metadata_cache.drop_all_volatile()
        with pytest.raises(IntegrityError):
            controller.read(line(0))

    def test_tampered_data_detected(self, sgx_controller):
        sgx_controller.write(line(0), payload(1))
        sgx_controller.wpq.drain_all()
        raw = bytearray(sgx_controller.nvm.peek(0))
        raw[0] ^= 0xFF  # beyond SECDED's single-bit repair
        sgx_controller.nvm.poke(0, bytes(raw))
        with pytest.raises(IntegrityError):
            sgx_controller.read(line(0))


def _deep_leaf(layout):
    """A leaf index whose base-8 digit is nonzero at every stored level
    and differs from the digit one level up, so each node on its path
    sits at a nonzero slot of its parent and a slot mix-up between
    adjacent levels reads a different nonce."""
    top = layout.root_level - 1
    index = 0
    for level in range(top):
        index += (7 - level % 6) * 8**level
    index += 8**top  # the top stored level has few nodes: digit 1
    assert index < layout.level_counts[0]
    return index


def _path(layout, leaf_index):
    """``(index, address)`` of every stored node from a leaf up."""
    path = []
    index = leaf_index
    for level in range(layout.root_level):
        path.append((index, layout.node_address(level, index)))
        index //= 8
    return path


class TestEveryLevel:
    """The verification walk on a path with nonzero slots everywhere."""

    def test_tamper_at_every_level_detected(self):
        probe = make_sgx()
        leaf_index = _deep_leaf(probe.layout)
        address = line(leaf_index * 8 + 3)
        for _index, node in _path(probe.layout, leaf_index):
            controller = make_sgx()
            controller.write(address, payload(1))
            controller.writeback_all()
            assert controller.nvm.is_written(node)
            raw = bytearray(controller.nvm.peek(node))
            raw[0] ^= 1
            controller.nvm.poke(node, bytes(raw))
            controller.metadata_cache.drop_all_volatile()
            with pytest.raises(IntegrityError, match=f"mismatch at {node:#x}"):
                controller.read(address)

    def test_untampered_path_reads_back(self):
        controller = make_sgx()
        address = line(_deep_leaf(controller.layout) * 8 + 3)
        controller.write(address, payload(1))
        controller.writeback_all()
        controller.metadata_cache.drop_all_volatile()
        assert controller.read(address) == payload(1)


class TestStrictPersistence:
    def test_every_level_persisted_per_write(self):
        controller = make_sgx(SchemeKind.STRICT_PERSISTENCE)
        controller.write(line(0), payload(1))
        # data + every stored tree level
        expected = 1 + controller.layout.root_level
        assert controller.persist_writes == expected

    def test_root_advances_per_write(self):
        controller = make_sgx(SchemeKind.STRICT_PERSISTENCE)
        controller.write(line(0), payload(1))
        controller.write(line(0), payload(2))
        assert sum(controller.engine.root_block.counters) == 2

    def test_memory_always_verifiable(self):
        controller = make_sgx(SchemeKind.STRICT_PERSISTENCE)
        for index in range(20):
            controller.write(line(index * 8), payload(index))
        controller.wpq.drain_all()
        # Drop the cache (no writeback!) — everything must still verify.
        controller.metadata_cache.drop_all_volatile()
        for index in range(20):
            assert controller.read(line(index * 8)) == payload(index)

    def test_persisted_path_verifies_on_nonzero_slots(self):
        controller = make_sgx(SchemeKind.STRICT_PERSISTENCE)
        layout = controller.layout
        leaf_index = _deep_leaf(layout)
        for value in range(3):
            controller.write(line(leaf_index * 8 + 3), payload(value))
        controller.wpq.drain_all()
        engine = controller.engine
        path = _path(layout, leaf_index)
        for position, (index, address) in enumerate(path):
            node = SgxCounterBlock.from_bytes(controller.nvm.peek(address))
            if position + 1 < len(path):
                parent = SgxCounterBlock.from_bytes(
                    controller.nvm.peek(path[position + 1][1])
                )
            else:
                parent = engine.root_block
            nonce = parent.counter(index % 8)
            assert nonce == 3
            assert engine.verify(node, nonce)

    def test_roundtrip(self):
        controller = make_sgx(SchemeKind.STRICT_PERSISTENCE)
        for index in range(50):
            controller.write(line(index), payload(index))
        for index in range(50):
            assert controller.read(line(index)) == payload(index)


class TestOsirisSgx:
    def test_stop_loss_persists_version_block(self):
        controller = make_sgx(SchemeKind.OSIRIS)
        leaf = controller.layout.counter_block_for(line(0))
        stop_loss = controller.config.encryption.stop_loss_limit
        for index in range(stop_loss):
            controller.write(line(0), payload(index))
        controller.wpq.drain_all()
        assert controller.nvm.is_written(leaf)

    def test_write_back_never_persists(self):
        controller = make_sgx(SchemeKind.WRITE_BACK)
        leaf = controller.layout.counter_block_for(line(0))
        for index in range(10):
            controller.write(line(0), payload(index))
        controller.wpq.drain_all()
        assert not controller.nvm.is_written(leaf)


class TestShutdown:
    def test_writeback_all_leaves_verifiable_memory(self, sgx_controller):
        for index in range(60):
            sgx_controller.write(line(index * 8), payload(index % 250))
        sgx_controller.writeback_all()
        sgx_controller.metadata_cache.drop_all_volatile()
        for index in range(60):
            assert sgx_controller.read(line(index * 8)) == payload(index % 250)

    def test_writeback_all_clears_dirty(self, sgx_controller):
        sgx_controller.write(line(0), payload(1))
        sgx_controller.writeback_all()
        dirty = [
            address
            for _slot, address, _record, is_dirty in (
                sgx_controller.metadata_cache.resident()
            )
            if is_dirty
        ]
        assert dirty == []


def _top_level_index(controller, address):
    """Index of the top-stored-level node above a data line."""
    layout = controller.layout
    level, index = layout.locate_node(layout.counter_block_for(address))
    while level < layout.root_level - 1:
        level, index = layout.parent_of(level, index)
    return index


class TestNeverWrittenNodes:
    """Fills of never-written nodes skip the MAC only under nonce 0."""

    def test_never_written_node_accepted_as_default(self, sgx_controller):
        leaf = sgx_controller.layout.counter_block_for(line(0))
        assert sgx_controller.read(line(0)) == bytes(64)
        record = sgx_controller.metadata_cache.peek(leaf)
        assert record.node == sgx_controller.engine.default_node()
        assert record.node is not sgx_controller.engine.default_node()
        # One fetch and one check per level, as for any other fill.
        levels = sgx_controller.layout.root_level
        assert sgx_controller.meta_fetches == levels
        assert sgx_controller.integrity_checks == levels

    def test_never_written_node_under_bumped_root_nonce_rejected(self):
        controller = make_sgx()
        layout = controller.layout
        index = _top_level_index(controller, line(0))
        top = layout.node_address(layout.root_level - 1, index)
        controller.engine.bump_root_nonce_for(index)
        with pytest.raises(IntegrityError, match=f"mismatch at {top:#x}"):
            controller.read(line(0))

    def test_lost_write_back_rejected(self):
        """A node whose parent nonce was bumped for a write-back that
        never reached NVM reads as never written under a non-zero
        nonce."""
        controller = make_sgx()
        leaf = controller.layout.counter_block_for(line(0))
        controller.write(line(0), payload(1))
        controller.writeback_all()
        assert controller.nvm.is_written(leaf)
        del controller.nvm._blocks[leaf]
        controller.metadata_cache.drop_all_volatile()
        with pytest.raises(IntegrityError, match=f"mismatch at {leaf:#x}"):
            controller.read(line(0))

    def test_poked_default_bytes_accepted(self):
        controller = make_sgx()
        leaf = controller.layout.counter_block_for(line(0))
        controller.nvm.poke(leaf, controller.engine.default_provider(leaf))
        assert controller.nvm.is_written(leaf)
        assert controller.read(line(0)) == bytes(64)

    @pytest.mark.parametrize("bit", [0, 200, 447, 448, 503])
    def test_bit_flip_in_never_written_node_rejected(self, bit):
        controller = make_sgx()
        leaf = controller.layout.counter_block_for(line(0))
        controller.nvm.inject_bit_flip(leaf, bit)
        with pytest.raises(IntegrityError, match=f"mismatch at {leaf:#x}"):
            controller.read(line(0))

    def test_detail_trace_keeps_one_check_event_per_fetch(self):
        from repro.sim.engine import run_simulation
        from repro.telemetry import TelemetrySpec
        from repro.traces.profiles import profile
        from repro.traces.synthetic import generate_trace
        from tests.helpers import MIB, small_config

        config = small_config(
            SchemeKind.WRITE_BACK, TreeKind.SGX, memory_bytes=64 * MIB
        )
        capacity = config.memory.capacity_bytes
        trace = generate_trace(
            profile("gcc"), 300, seed=2, capacity_bytes=capacity
        )
        detail = TelemetrySpec(detail=True)
        result = run_simulation(config, trace, ProcessorKeys(1), detail)
        checks = [
            event
            for event in result.events
            if event["kind"] == "integrity.check"
            and event.get("tree") == "sgx"
        ]
        assert checks and all(event["ok"] for event in checks)
        assert len(checks) == result.stat("ctrl.meta_fetches")
