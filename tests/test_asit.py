"""Behavioral tests for the ASIT controller (Shadow Table protocol)."""

import pytest

from repro.config import SchemeKind, TreeKind
from repro.core.asit import AsitController
from repro.core.shadow_table import StEntry
from repro.errors import ConfigError

from tests.helpers import line, make_controller, payload, small_config


def make_asit(**kwargs) -> AsitController:
    return make_controller(SchemeKind.ASIT, TreeKind.SGX, **kwargs)


def st_entry_from_nvm(controller, slot: int) -> StEntry:
    return StEntry.from_bytes(
        controller.nvm.peek(controller.layout.st_entry_address(slot))
    )


class TestSchemeGuard:
    def test_requires_asit_scheme(self):
        from repro.controller.factory import build_layout

        config = small_config(SchemeKind.WRITE_BACK, TreeKind.SGX)
        with pytest.raises(ConfigError):
            AsitController(config, build_layout(config))


class TestStInvariant:
    """ST[slot] valid  <=>  slot holds a dirty node (see asit.py)."""

    def assert_invariant(self, controller):
        dirty_by_slot = {
            slot: dirty
            for slot, _address, _record, dirty in (
                controller.metadata_cache.resident()
            )
        }
        for slot, entry in enumerate(controller.st_entries):
            assert entry.valid == dirty_by_slot.get(slot, False), (
                f"slot {slot}: valid={entry.valid} but "
                f"dirty={dirty_by_slot.get(slot, False)}"
            )

    def test_invariant_after_writes(self):
        controller = make_asit()
        for index in range(30):
            controller.write(line(index * 8), payload(index))
        self.assert_invariant(controller)

    def test_invariant_after_reads(self):
        controller = make_asit()
        for index in range(30):
            controller.read(line(index * 8))
        self.assert_invariant(controller)

    def test_invariant_after_eviction_pressure(self):
        controller = make_asit()
        for index in range(600):
            if index % 3:
                controller.write(line(index * 8), payload(index % 250))
            else:
                controller.read(line(index * 8))
        self.assert_invariant(controller)

    def test_invariant_after_writeback_all(self):
        controller = make_asit()
        for index in range(30):
            controller.write(line(index * 8), payload(index))
        controller.writeback_all()
        self.assert_invariant(controller)


class TestStContents:
    def test_entry_snapshots_node(self):
        controller = make_asit()
        controller.write(line(0), payload(1))
        leaf = controller.layout.counter_block_for(line(0))
        slot = controller.metadata_cache.slot_of(leaf)
        entry = controller.st_entries[slot]
        record = controller.metadata_cache.peek(leaf)
        assert entry.valid
        assert entry.address == leaf
        assert entry.mac == record.node.mac
        assert list(entry.lsbs) == record.node.lsbs(controller.lsb_bits)

    def test_entry_persisted_to_nvm(self):
        controller = make_asit()
        controller.write(line(0), payload(1))
        controller.wpq.drain_all()
        leaf = controller.layout.counter_block_for(line(0))
        slot = controller.metadata_cache.slot_of(leaf)
        assert st_entry_from_nvm(controller, slot) == controller.st_entries[slot]

    def test_one_shadow_write_per_data_write(self):
        controller = make_asit()
        for index in range(10):
            controller.write(line(0), payload(index))
        # same leaf modified 10 times -> 10 ST snapshots (plus none for
        # reads): "only one extra write operation per memory write".
        assert controller.shadow_writes == 10

    def test_node_mac_kept_current(self):
        controller = make_asit()
        controller.write(line(0), payload(1))
        leaf = controller.layout.counter_block_for(line(0))
        record = controller.metadata_cache.peek(leaf)
        assert controller.engine.verify(record.node, record.parent_nonce)


class TestShadowTree:
    def test_root_changes_on_st_write(self):
        controller = make_asit()
        before = controller.shadow_tree.root
        controller.write(line(0), payload(1))
        assert controller.shadow_tree.root != before

    def test_root_matches_nvm_recomputation(self):
        from repro.core.shadow_table import ShadowRegionTree

        controller = make_asit()
        for index in range(25):
            controller.write(line(index * 8), payload(index))
        controller.wpq.drain_all()
        recomputed = ShadowRegionTree.compute_root(
            controller.keys.shadow_key,
            controller.metadata_cache.num_slots,
            lambda slot: controller.nvm.peek(
                controller.layout.st_entry_address(slot)
            ),
        )
        assert recomputed == controller.shadow_tree.root

    def test_persistent_root_survives_drop(self):
        controller = make_asit()
        controller.write(line(0), payload(1))
        live_root = controller.shadow_tree.root
        controller.drop_volatile()
        assert controller.shadow_tree_root == live_root


class TestLsbWrapPersist:
    def test_wrap_persists_node_first(self):
        controller = make_asit()
        leaf = controller.layout.counter_block_for(line(0))
        controller.write(line(0), payload(0))
        record = controller.metadata_cache.peek(leaf)
        # Force the counter to the brink of a 49-bit LSB wrap.
        record.node.counters[0] = (1 << controller.lsb_bits) - 1
        controller.write(line(0), payload(1))
        controller.wpq.drain_all()
        assert controller.lsb_overflow_persists == 1
        from repro.counters.sgx import SgxCounterBlock

        memory = SgxCounterBlock.from_bytes(controller.nvm.peek(leaf))
        assert memory.counter(0) == 1 << controller.lsb_bits

    def test_splice_after_wrap_reconstructs(self):
        controller = make_asit()
        leaf = controller.layout.counter_block_for(line(0))
        controller.write(line(0), payload(0))
        record = controller.metadata_cache.peek(leaf)
        record.node.counters[0] = (1 << controller.lsb_bits) - 1
        for index in range(3):
            controller.write(line(0), payload(index))
        controller.wpq.drain_all()
        from repro.counters.sgx import SgxCounterBlock

        slot = controller.metadata_cache.slot_of(leaf)
        entry = controller.st_entries[slot]
        memory = SgxCounterBlock.from_bytes(controller.nvm.peek(leaf))
        memory.splice_lsbs(list(entry.lsbs), entry.mac, controller.lsb_bits)
        assert memory.counter(0) == record.node.counter(0)


class TestRoundTrip:
    def test_heavy_mixed_workload(self):
        controller = make_asit()
        lines = [line(index * 8) for index in range(300)]
        for index, address in enumerate(lines):
            controller.write(address, payload(index % 250))
        for index, address in enumerate(lines):
            assert controller.read(address) == payload(index % 250)
