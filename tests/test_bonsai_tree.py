"""Unit tests for the Bonsai tree engine and node codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import MemoryConfig, TreeKind
from repro.counters.split import SplitCounterBlock
from repro.crypto.keys import ProcessorKeys
from repro.errors import ConfigError
from repro.integrity.bonsai import BonsaiNode, BonsaiTreeEngine
from repro.mem.layout import MemoryLayout

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
    def test_verify_child_matches(self, engine):
        child = SplitCounterBlock().to_bytes()
        parent = BonsaiNode()
        parent.set_child_hash(3, engine.block_hash(child))
        assert engine.verify_child(parent, 3, child)

    def test_verify_child_detects_tamper(self, engine):
        child = bytearray(SplitCounterBlock().to_bytes())
        parent = BonsaiNode()
        parent.set_child_hash(3, engine.block_hash(bytes(child)))
        child[0] ^= 1
        assert not engine.verify_child(parent, 3, bytes(child))

    def test_root_update_and_verify(self, engine):
        fake_top = b"\x01" * 64
        engine.update_root_child(1, fake_top)
        assert engine.verify_against_root(1, fake_top)
        assert not engine.verify_against_root(1, b"\x02" * 64)

    def test_root_value_changes_with_root_node(self, engine):
        before = engine.root_value()
        engine.update_root_child(0, b"\x07" * 64)
        assert engine.root_value() != before


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
