"""Deferred eager tree updates on Merkle caches smaller than a tree path.

An eager write records its counter block and stored ancestors in the
controller's stale set, and ``BonsaiController.settle`` hashes them
where a hash is observed: at a fill that evicts a stale block, before
strict persistence stages ancestors, in ``writeback_all`` and
``drop_volatile``, and on every read of ``engine.root_node``.  A Merkle
cache with fewer ways than stored tree levels is where those rules are
tight: a write's own ancestor walk evicts nodes it has just marked.
The reference for every root read is a full rebuild of the tree from
the controller's current counter blocks, which is what the eager
policy's root must equal.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, SchemeKind
from repro.controller.factory import build_controller, build_layout
from repro.core.recovery_agit import AgitRecovery
from repro.crypto.keys import ProcessorKeys
from repro.recovery.crash import crash, reincarnate
from repro.recovery.osiris_full import OsirisFullRecovery

from tests.helpers import line, payload, small_config

#: Stored tree levels above the counter blocks in the small system.
STORED_TREE_LEVELS = build_layout(small_config()).root_level - 1


def tiny_config(scheme: SchemeKind, ways: int, sets: int = 4):
    """The small system with a ``ways``-way, ``sets``-set Merkle cache
    and a 2-way, 2-set counter cache."""
    assert ways < STORED_TREE_LEVELS
    return dataclasses.replace(
        small_config(scheme),
        counter_cache=CacheConfig(size_bytes=64 * 2 * 2, ways=2),
        merkle_cache=CacheConfig(size_bytes=64 * ways * sets, ways=ways),
    )


def eager_root(controller):
    """The root the eager policy must hold: the whole tree rebuilt from
    the current counter blocks (cached, queued, or in NVM)."""
    layout = controller.layout
    engine = controller.engine
    built = {}

    def read(address):
        raw = built.get(address)
        if raw is None:
            level, index = layout.locate_node(address)
            if level == 0:
                block = controller.counter_cache.peek(address)
                if block is not None:
                    raw = block.to_bytes()
                else:
                    raw = controller.wpq.lookup(address)
                    if raw is None:
                        raw = controller.nvm.peek(address)
            else:
                raw = engine.rebuild_level(level, read, index).to_bytes()
            built[address] = raw
        return raw

    return engine.rebuild_root(read)


def assert_memory_tree_verifies(controller):
    """Every written counter block and tree node in NVM matches its
    parent's entry (the parent's NVM copy, or the on-chip root)."""
    layout = controller.layout
    engine = controller.engine
    nvm = controller.nvm
    root = engine.root_node
    for region in layout.level_regions[: layout.root_level]:
        for address in nvm.written_in(region.base, region.num_blocks):
            level, index = layout.locate_node(address)
            slot = index % layout.arity
            if level + 1 == layout.root_level:
                parent = root
            else:
                parent_address = layout.node_address(
                    level + 1, index // layout.arity
                )
                parent = engine.default_node(level + 1)
                if nvm.is_written(parent_address):
                    parent = type(parent).from_bytes(nvm.peek(parent_address))
            assert parent.child_hash(slot) == engine.block_hash(
                nvm.peek(address)
            ), hex(address)


def assert_stale_blocks_resident(controller):
    for address in controller._stale_counters:
        assert controller.counter_cache.contains(address), hex(address)
    for address in controller._stale_nodes:
        assert controller.merkle_cache.contains(address), hex(address)


def recover(controller, scheme):
    """Crash and reboot; the write-back scheme cannot recover dirty
    metadata, so it shuts down in order first."""
    if scheme == SchemeKind.WRITE_BACK:
        controller.writeback_all()
    crash(controller)
    reborn = reincarnate(controller)
    engine = {
        SchemeKind.OSIRIS: OsirisFullRecovery,
        SchemeKind.AGIT_PLUS: AgitRecovery,
    }.get(scheme)
    if engine is not None:
        assert engine(reborn.nvm, reborn.layout, reborn).run().root_matched
    return reborn


#: Lines spread over 16 pages, so 16 counter blocks and every stored
#: level's nodes compete for the tiny caches' few slots.
operation = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=255),
    ),
    st.tuples(
        st.just("read"),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=3),
    ),
    st.tuples(st.just("root")),
    st.tuples(st.just("writeback")),
    st.tuples(st.just("crash")),
)


def page_line(page: int, offset: int) -> int:
    """Line ``offset`` of a page far enough from its neighbours that
    their tree paths part at different levels."""
    return line(page * 64 * 37 + offset * 9)


class TestTinyMerkleCache:
    @pytest.mark.parametrize("ways", [1, 2])
    @pytest.mark.parametrize(
        "scheme",
        [SchemeKind.WRITE_BACK, SchemeKind.OSIRIS, SchemeKind.AGIT_PLUS],
    )
    @settings(max_examples=40, deadline=None)
    @given(st.lists(operation, min_size=1, max_size=60))
    def test_settle_rules_hold(self, scheme, ways, operations):
        controller = build_controller(
            tiny_config(scheme, ways), keys=ProcessorKeys(3)
        )
        oracle = {}
        for op in operations:
            kind = op[0]
            if kind == "write":
                address = page_line(op[1], op[2])
                controller.write(address, payload(op[3]))
                oracle[address] = payload(op[3])
            elif kind == "read":
                address = page_line(op[1], op[2])
                assert controller.read(address) == oracle.get(
                    address, bytes(64)
                )
            elif kind == "root":
                assert controller.engine.root_node == eager_root(controller)
            elif kind == "writeback":
                controller.writeback_all()
                rebuilt = controller.engine.rebuild_root(controller.nvm.peek)
                assert rebuilt == controller.engine.root_node
                assert_memory_tree_verifies(controller)
            else:
                controller = recover(controller, scheme)
            assert_stale_blocks_resident(controller)
        for address, expected in oracle.items():
            assert controller.read(address) == expected
        controller.writeback_all()
        assert (
            controller.engine.rebuild_root(controller.nvm.peek)
            == controller.engine.root_node
        )
        assert_memory_tree_verifies(controller)


class TestWalkEvictsItsOwnMark:
    def test_settle_carries_the_victim_hash_into_its_parent(self):
        """A 1-way Merkle cache whose every set holds one node: page 0's
        three stored ancestors share set 0.  The first write's counter
        fetch fills them top-down, so only the level-1 node stays.  The
        walk marks it, then misses level 2, whose fetch fills level 3
        first: that fill evicts the marked level-1 node while its parent
        is not resident, so the settle carries the level-1 digest into
        the level-2 node the walk fills next."""
        assert STORED_TREE_LEVELS == 3
        controller = build_controller(
            tiny_config(SchemeKind.WRITE_BACK, ways=1), keys=ProcessorKeys(3)
        )
        layout = controller.layout
        level1, level2 = (layout.node_address(level, 0) for level in (1, 2))
        sets = controller.merkle_cache.num_sets
        path = layout.ancestors_of_counter(layout.counter_block_for(0))
        assert len({(address // 64) % sets for address in path}) == 1

        carries = []
        settle = controller.settle

        def recording_settle(victim=None):
            settle(victim)
            if controller._carried is not None:
                carries.append(controller._carried)

        controller.settle = recording_settle
        controller.write(line(0), payload(1))
        assert [carry[:2] for carry in carries] == [(level2, 0)]
        assert controller._carried is None  # applied by level 2's fill
        assert not controller.merkle_cache.contains(level1)

        assert controller.engine.root_node == eager_root(controller)
        assert controller.read(line(0)) == payload(1)
        controller.write(line(1), payload(2))
        assert controller.read(line(0)) == payload(1)
        assert controller.read(line(1)) == payload(2)
        controller.writeback_all()
        assert (
            controller.engine.rebuild_root(controller.nvm.peek)
            == controller.engine.root_node
        )
        assert_memory_tree_verifies(controller)
