"""Tests for tree-path navigation."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.config import PAGE_SIZE, MemoryConfig, TreeKind
from repro.integrity.geometry import path_to_root
from repro.mem.layout import MemoryLayout

MIB = 1024 * 1024

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


@pytest.fixture
def layout():
    return MemoryLayout(
        MemoryConfig(capacity_bytes=4 * MIB),
        TreeKind.BONSAI,
        metadata_cache_blocks=128,
    )


class TestPathToRoot:
    def test_starts_at_leaf_ends_at_root(self, layout):
        leaf = layout.counter_region.block_address(0)
        path = path_to_root(layout, leaf)
        assert path[0].level == 0
        assert path[0].address == leaf
        assert path[-1].level == layout.root_level
        assert path[-1].address is None

    def test_length_is_levels_plus_one(self, layout):
        leaf = layout.counter_region.block_address(0)
        assert len(path_to_root(layout, leaf)) == layout.root_level + 1

    def test_child_slots_consistent(self, layout):
        leaf = layout.counter_region.block_address(37)
        path = path_to_root(layout, leaf)
        index = 37
        for step in path[1:]:
            assert step.child_slot == index % 8
            index //= 8

    def test_works_from_intermediate_node(self, layout):
        node = layout.node_address(2, 3)
        path = path_to_root(layout, node)
        assert path[0].level == 2
        assert path[0].index == 3

    def test_matches_layout_helper(self, layout):
        leaf = layout.counter_region.block_address(9)
        addresses = [
            step.address
            for step in path_to_root(layout, leaf)[1:]
            if step.address is not None
        ]
        assert addresses == layout.ancestors_of_counter(leaf)

    @last_node_examples
    @given(stored_nodes)
    def test_addresses_match_layout_property(self, node):
        layout = ODD_LAYOUT
        assert layout.level_counts == [1100, 138, 18, 3, 1]
        assert layout.level_bases == [
            region.base for region in layout.level_regions
        ] + [layout.level_regions[-1].end]
        level, index = node
        address = layout.node_address(level, index)
        path = path_to_root(layout, address)
        assert len(path) == layout.root_level - level + 1
        assert path[0] == (level, index, address, layout.child_slot(index))
        for below, step in zip(path, path[1:]):
            assert (step.level, step.index) == layout.parent_of(
                below.level, below.index
            )
            assert step.child_slot == layout.child_slot(below.index)
            if step.level < layout.root_level:
                assert step.address == layout.node_address(
                    step.level, step.index
                )
                assert layout.locate_node(step.address) == (
                    step.level,
                    step.index,
                )
            else:
                assert step.address is None
