"""Unit tests for the Bonsai tree engine and node codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import MemoryConfig, TreeKind
from repro.counters.split import SplitCounterBlock
from repro.crypto.keys import ProcessorKeys
from repro.errors import ConfigError, IntegrityError
from repro.integrity.bonsai import BonsaiNode, BonsaiTreeEngine
from repro.mem.layout import MemoryLayout

from tests.helpers import line, make_controller, payload

MIB = 1024 * 1024


@pytest.fixture
def layout():
    return MemoryLayout(
        MemoryConfig(capacity_bytes=4 * MIB),
        TreeKind.BONSAI,
        metadata_cache_blocks=128,
    )


@pytest.fixture
def engine(layout):
    return BonsaiTreeEngine(ProcessorKeys(1), layout)


class TestBonsaiNode:
    def test_roundtrip(self):
        node = BonsaiNode(list(range(8)))
        assert BonsaiNode.from_bytes(node.to_bytes()) == node

    def test_set_child_hash_masks_to_64_bits(self):
        node = BonsaiNode()
        node.set_child_hash(0, 1 << 65)
        assert node.child_hash(0) < (1 << 64)

    def test_wrong_size_rejected(self):
        with pytest.raises(ConfigError):
            BonsaiNode.from_bytes(b"short")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigError):
            BonsaiNode([0] * 7)

    def test_copy_independent(self):
        node = BonsaiNode()
        clone = node.copy()
        node.set_child_hash(0, 1)
        assert clone.child_hash(0) == 0

    @given(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            min_size=8,
            max_size=8,
        )
    )
    def test_roundtrip_property(self, hashes):
        node = BonsaiNode(hashes)
        assert BonsaiNode.from_bytes(node.to_bytes()) == node


class TestDefaults:
    def test_level0_default_is_zero_block(self, engine):
        assert engine.default_node_bytes(0) == bytes(64)

    def test_level1_default_hashes_zero_children(self, engine):
        zero_hash = engine.block_hash(bytes(64))
        node = BonsaiNode.from_bytes(engine.default_node_bytes(1))
        assert node.hashes == [zero_hash] * 8

    def test_defaults_chain_upward(self, engine, layout):
        for level in range(1, layout.root_level + 1):
            child_hash = engine.block_hash(engine.default_node_bytes(level - 1))
            node = BonsaiNode.from_bytes(engine.default_node_bytes(level))
            assert node.hashes == [child_hash] * 8

    def test_default_node_is_a_fresh_parse(self, engine, layout):
        for level in range(1, layout.root_level + 1):
            node = engine.default_node(level)
            assert node == BonsaiNode.from_bytes(
                engine.default_node_bytes(level)
            )
            # Cached nodes are mutated in place: each call owns its list.
            node.set_child_hash(0, 1)
            assert engine.default_node(level).to_bytes() == (
                engine.default_node_bytes(level)
            )

    def test_default_provider_serves_tree_regions(self, engine, layout):
        for level, region in enumerate(layout.level_regions):
            assert engine.default_provider(region.base) == (
                engine.default_node_bytes(level)
            )

    def test_default_provider_zeros_elsewhere(self, engine):
        assert engine.default_provider(0) == bytes(64)

    def test_fresh_root_matches_defaults(self, engine, layout):
        assert engine.root_node == BonsaiNode.from_bytes(
            engine.default_node_bytes(layout.root_level)
        )


class TestVerification:
    """Child and root checks, reached through a controller's fetch walk
    and its settled on-chip root."""

    @staticmethod
    def _refetch(controller, counter_address, damage=None):
        """Write back everything, optionally damage the counter block's
        memory copy, and drop the caches so the next read fetches it."""
        controller.writeback_all()
        if damage is not None:
            raw = bytearray(controller.nvm.peek(counter_address))
            raw[damage] ^= 1
            controller.nvm.poke(counter_address, bytes(raw))
        controller.counter_cache.drop_all_volatile()
        controller.merkle_cache.drop_all_volatile()

    def test_refetched_counter_block_verifies(self):
        controller = make_controller()
        controller.write(line(0), payload(1))
        self._refetch(controller, controller.layout.counter_block_for(0))
        assert controller.read(line(0)) == payload(1)

    def test_tampered_counter_block_raises_on_read(self):
        controller = make_controller()
        controller.write(line(0), payload(1))
        counter_address = controller.layout.counter_block_for(0)
        self._refetch(controller, counter_address, damage=0)
        with pytest.raises(IntegrityError, match=f"{counter_address:#x}"):
            controller.read(line(0))

    def test_root_holds_top_node_hash_after_writeback(self):
        controller = make_controller()
        controller.write(line(0), payload(1))
        controller.writeback_all()
        layout = controller.layout
        top = layout.ancestors_of_counter(layout.counter_block_for(0))[-1]
        engine = controller.engine
        assert engine.root_node.child_hash(0) == engine.block_hash(
            controller.nvm.peek(top)
        )

    def test_write_changes_root_value_after_settle(self):
        controller = make_controller()
        before = controller.engine.root_value()
        controller.write(line(0), payload(1))
        # The write's tree update is deferred until a hash is observed.
        assert controller.engine._root.to_bytes() == (
            controller.engine.default_node_bytes(
                controller.layout.root_level
            )
        )
        controller.settle()
        assert controller.engine.root_value() != before


class TestRebuild:
    def test_rebuild_level_from_children(self, engine, layout):
        blocks = {}
        child_level, parent_index = 0, 0
        for slot in range(8):
            block = SplitCounterBlock(major=slot + 1)
            address = layout.node_address(child_level, slot)
            blocks[address] = block.to_bytes()
        node = engine.rebuild_level(1, lambda a: blocks[a], parent_index)
        for slot in range(8):
            address = layout.node_address(0, slot)
            assert node.child_hash(slot) == engine.block_hash(blocks[address])

    def test_rebuild_level_zero_rejected(self, engine):
        with pytest.raises(ConfigError):
            engine.rebuild_level(0, lambda a: b"", 0)

    def test_rebuild_short_node_uses_defaults(self, engine, layout):
        # The top stored level has 2 nodes; the root covers 8 slots, so
        # 6 slots hash the level's default.
        reader = lambda address: engine.default_provider(address)
        root = engine.rebuild_root(reader)
        assert root == engine.root_node

    def test_rebuild_root_detects_divergence(self, engine, layout):
        top_level = layout.root_level - 1

        def reader(address):
            default = engine.default_provider(address)
            if address == layout.node_address(top_level, 0):
                return b"\xff" * 64
            return default

        assert engine.rebuild_root(reader) != engine.root_node


class TestFullConsistency:
    def test_bottom_up_rebuild_reaches_root(self, engine, layout):
        """Mutate one counter, rebuild every ancestor, match the root."""
        store = {}

        def read(address):
            return store.get(address, engine.default_provider(address))

        leaf_address = layout.counter_region.block_address(5)
        block = SplitCounterBlock()
        block.increment(0)
        store[leaf_address] = block.to_bytes()

        level, index = 0, 5
        while level + 1 < layout.root_level:
            level, index = layout.parent_of(level, index)
            store[layout.node_address(level, index)] = engine.rebuild_level(
                level, read, index
            ).to_bytes()
        rebuilt_root = engine.rebuild_root(read)
        # mirror the same update into the live root via eager updates
        engine.root_node = rebuilt_root
        assert engine.rebuild_root(read) == engine.root_node
