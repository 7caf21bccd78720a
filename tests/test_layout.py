"""Unit and property tests for the physical memory layout."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.config import (
    BLOCK_SIZE,
    PAGE_SIZE,
    MemoryConfig,
    SchemeKind,
    TreeKind,
)
from repro.core.shadow_table import ShadowAddressTable
from repro.errors import AlignmentError, LayoutError
from repro.mem.layout import MemoryLayout, Region

from tests.helpers import make_controller, payload

MIB = 1024 * 1024


def small_layout(tree=TreeKind.BONSAI) -> MemoryLayout:
    return MemoryLayout(
        MemoryConfig(capacity_bytes=4 * MIB), tree, metadata_cache_blocks=128
    )


#: 1100 pages: level counts 1100, 138, 18, 3, 1.  No level is a multiple
#: of the arity, so the last node of every stored level is short.
ODD_LAYOUT = MemoryLayout(
    MemoryConfig(capacity_bytes=1100 * PAGE_SIZE),
    TreeKind.BONSAI,
    metadata_cache_blocks=128,
)

#: Any stored ``(level, index)`` of ``ODD_LAYOUT``.
stored_nodes = st.integers(0, ODD_LAYOUT.root_level - 1).flatmap(
    lambda level: st.tuples(
        st.just(level),
        st.integers(0, ODD_LAYOUT.level_counts[level] - 1),
    )
)


def last_node_examples(test):
    """Always try the short last node of every stored level."""
    for level in range(ODD_LAYOUT.root_level):
        test = example((level, ODD_LAYOUT.level_counts[level] - 1))(test)
    return test


class TestRegion:
    def test_contains(self):
        region = Region("r", 1024, 2048)
        assert region.contains(1024)
        assert region.contains(3071)
        assert not region.contains(3072)
        assert not region.contains(1023)

    def test_block_index_roundtrip(self):
        region = Region("r", 4096, 4096)
        for index in (0, 1, 63):
            assert region.block_index(region.block_address(index)) == index

    def test_block_index_outside_raises(self):
        region = Region("r", 0, 64)
        with pytest.raises(LayoutError):
            region.block_index(64)

    def test_block_address_outside_raises(self):
        region = Region("r", 0, 64)
        with pytest.raises(LayoutError):
            region.block_address(1)

    def test_num_blocks(self):
        assert Region("r", 0, 4096).num_blocks == 64


class TestBonsaiGeometry:
    def test_level_counts_shrink_by_arity(self):
        layout = small_layout()
        # 4MB / 4KB pages = 1024 counter blocks
        assert layout.level_counts == [1024, 128, 16, 2, 1]
        assert layout.root_level == 4

    def test_stored_levels_exclude_root(self):
        layout = small_layout()
        assert len(layout.level_regions) == layout.root_level == 4

    def test_regions_are_disjoint_and_ordered(self):
        layout = small_layout()
        regions = [layout.data, *layout.level_regions, layout.sct, layout.smt, layout.st]
        for before, after in zip(regions, regions[1:]):
            assert before.end == after.base

    def test_counter_block_mapping(self):
        layout = small_layout()
        base = layout.counter_region.base
        assert layout.counter_block_for(0) == base
        assert layout.counter_block_for(4032) == base  # last line, same page
        assert layout.counter_block_for(4096) == base + 64

    def test_counter_slot_mapping(self):
        layout = small_layout()
        assert layout.counter_slot_for(0) == 0
        assert layout.counter_slot_for(64) == 1
        assert layout.counter_slot_for(4096 + 128) == 2

    def test_data_address_alignment_enforced(self):
        layout = small_layout()
        with pytest.raises(AlignmentError):
            layout.check_data_address(33)

    def test_data_address_range_enforced(self):
        layout = small_layout()
        with pytest.raises(LayoutError):
            layout.check_data_address(4 * MIB)


class TestSgxGeometry:
    def test_leaf_covers_eight_lines(self):
        layout = small_layout(TreeKind.SGX)
        assert layout.lines_per_counter_block == 8
        # 4MB / 64B = 65536 lines / 8 = 8192 version blocks
        assert layout.level_counts[0] == 8192

    def test_slot_mapping(self):
        layout = small_layout(TreeKind.SGX)
        assert layout.counter_slot_for(0) == 0
        assert layout.counter_slot_for(7 * 64) == 7
        assert layout.counter_slot_for(8 * 64) == 0


class TestTreeNavigation:
    def test_parent_child_inverse(self):
        layout = small_layout()
        for level in range(1, layout.root_level):
            for index in (0, 3, layout.level_counts[level] - 1):
                children = layout.children_of(level, index)
                for child_level, child_index in children:
                    assert layout.parent_of(child_level, child_index) == (
                        level,
                        index,
                    )

    def test_last_node_may_have_fewer_children(self):
        layout = small_layout()
        # level 3 has 2 nodes over 16 level-2 nodes: both full here;
        # level 4 (root) over 2 children is the short one but on-chip.
        children = layout.children_of(3, 1)
        assert len(children) == 8

    def test_children_of_leaf_raises(self):
        layout = small_layout()
        with pytest.raises(LayoutError):
            layout.children_of(0, 0)

    def test_parent_of_root_raises(self):
        layout = small_layout()
        with pytest.raises(LayoutError):
            layout.parent_of(layout.root_level, 0)

    def test_locate_node_roundtrip(self):
        layout = small_layout()
        for level in range(layout.root_level):
            address = layout.node_address(level, 1)
            assert layout.locate_node(address) == (level, 1)

    def test_locate_non_tree_address_raises(self):
        layout = small_layout()
        with pytest.raises(LayoutError):
            layout.locate_node(0)  # data region

    @pytest.mark.parametrize("tree", [TreeKind.BONSAI, TreeKind.SGX])
    def test_level_of_first_and_last_block_of_every_level(self, tree):
        layout = small_layout(tree)
        for level, region in enumerate(layout.level_regions):
            last = region.num_blocks - 1
            for index in (0, last):
                address = layout.node_address(level, index)
                assert layout.level_of(address) == level
                assert layout.locate_node(address) == (level, index)
            # Last byte of the level still belongs to it.
            assert layout.level_of(region.end - 1) == level
            with pytest.raises(LayoutError):
                layout.node_address(level, region.num_blocks)

    @pytest.mark.parametrize("tree", [TreeKind.BONSAI, TreeKind.SGX])
    def test_level_of_outside_the_tree(self, tree):
        layout = small_layout(tree)
        outside = [0, layout.data.end - 64, -64, layout.total_size]
        for region in (layout.sct, layout.smt, layout.st):
            outside += [region.base, region.end - 64]
        for address in outside:
            assert layout.level_of(address) == -1
            with pytest.raises(LayoutError):
                layout.locate_node(address)

    def test_node_address_rejects_root_level(self):
        layout = small_layout()
        with pytest.raises(LayoutError):
            layout.node_address(layout.root_level, 0)

    def test_ancestors_of_counter(self):
        layout = small_layout()
        ancestors = layout.ancestors_of_counter(layout.counter_region.base)
        # stored levels 1..3 (root level 4 is on-chip)
        assert len(ancestors) == 3
        levels = [layout.locate_node(address)[0] for address in ancestors]
        assert levels == [1, 2, 3]

    @given(st.integers(min_value=0, max_value=1023))
    def test_ancestor_chain_property(self, leaf_index):
        layout = small_layout()
        address = layout.counter_region.block_address(leaf_index)
        ancestors = layout.ancestors_of_counter(address)
        level, index = 0, leaf_index
        for ancestor in ancestors:
            level, index = layout.parent_of(level, index)
            assert layout.node_address(level, index) == ancestor

    @last_node_examples
    @given(stored_nodes)
    def test_addresses_match_layout_property(self, node):
        """The arithmetic walk the controllers inline — ``index // 8``
        on ``level_bases`` — agrees with the layout's navigation helpers
        at every step from any stored node up to the on-chip root."""
        layout = ODD_LAYOUT
        assert layout.level_counts == [1100, 138, 18, 3, 1]
        assert layout.level_bases == [
            region.base for region in layout.level_regions
        ] + [layout.level_regions[-1].end]
        level, index = node
        address = layout.node_address(level, index)
        assert address == layout.level_bases[level] + index * BLOCK_SIZE
        assert layout.locate_node(address) == (level, index)
        while level < layout.root_level:
            slot = layout.child_slot(index)
            assert slot == index % layout.arity
            parent = layout.parent_of(level, index)
            level, index = level + 1, index // layout.arity
            assert parent == (level, index)
            assert (level - 1, index * layout.arity + slot) in (
                layout.children_of(level, index)
            )
            if level < layout.root_level:
                address = layout.level_bases[level] + index * BLOCK_SIZE
                assert layout.node_address(level, index) == address
                assert layout.locate_node(address) == (level, index)
            else:
                assert index == 0


def _shadow_entries(cache, region, controller):
    """Each resident block of ``cache`` next to the address its slot's
    entry in the shadow ``region`` names: slot *s* is word *s % 8* of
    block *s // 8*."""
    pairs = []
    for slot, address, _payload, _dirty in cache.resident():
        block = controller.nvm.peek(region.block_address(slot // 8))
        tracked = ShadowAddressTable.parse_block(block)[slot % 8]
        pairs.append((address, tracked))
    return pairs


def _tracking_controller():
    """AGIT-Read (tracks every fill) after writes to five pages, with
    its shadow writes drained to NVM."""
    controller = make_controller(SchemeKind.AGIT_READ)
    for page in range(5):
        controller.write(page * PAGE_SIZE, payload(page))
    controller.wpq.drain_all()
    return controller


class TestShadowRegions:
    def test_sct_packs_eight_addresses_per_block(self):
        controller = _tracking_controller()
        cache = controller.counter_cache
        slots = [slot for slot, *_rest in cache.resident()]
        assert min(slots) < 8 <= max(slots)
        pairs = _shadow_entries(cache, controller.layout.sct, controller)
        assert [tracked for _address, tracked in pairs] == [
            address for address, _tracked in pairs
        ]

    def test_smt_separate_from_sct(self):
        controller = _tracking_controller()
        layout = controller.layout
        assert layout.smt.base != layout.sct.base
        pairs = _shadow_entries(controller.merkle_cache, layout.smt, controller)
        assert pairs and all(address == tracked for address, tracked in pairs)

    def test_st_one_entry_per_slot(self):
        layout = small_layout(TreeKind.SGX)
        assert layout.st_entry_address(0) == layout.st.base
        assert layout.st_entry_address(1) == layout.st.base + 64

    def test_st_region_covers_combined_cache(self):
        layout = small_layout(TreeKind.SGX)
        assert layout.st.size == 2 * 128 * 64

    def test_describe_mentions_every_region(self):
        description = small_layout().describe()
        for name in ("data", "tree_l0", "sct", "smt", "st", "root level"):
            assert name in description
