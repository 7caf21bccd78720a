"""Behavioral tests for the Bonsai secure memory controller."""

import pytest

from repro.config import BLOCK_SIZE, SchemeKind
from repro.controller.factory import build_layout
from repro.counters.split import SplitCounterBlock
from repro.errors import IntegrityError

from tests.helpers import line, make_controller, payload, small_config

#: Stored ancestor levels of the small test tree (the root is on-chip).
STORED_ANCESTOR_LEVELS = range(1, build_layout(small_config()).root_level)


class TestReadWritePath:
    def test_unwritten_reads_zero(self, bonsai_controller):
        assert bonsai_controller.read(line(0)) == bytes(64)

    def test_write_then_read(self, bonsai_controller):
        bonsai_controller.write(line(3), payload(1))
        assert bonsai_controller.read(line(3)) == payload(1)

    def test_overwrite(self, bonsai_controller):
        bonsai_controller.write(line(3), payload(1))
        bonsai_controller.write(line(3), payload(2))
        assert bonsai_controller.read(line(3)) == payload(2)

    def test_independent_lines(self, bonsai_controller):
        bonsai_controller.write(line(0), payload(1))
        bonsai_controller.write(line(1), payload(2))
        assert bonsai_controller.read(line(0)) == payload(1)
        assert bonsai_controller.read(line(1)) == payload(2)

    def test_data_stored_encrypted(self, bonsai_controller):
        bonsai_controller.write(line(0), payload(1))
        bonsai_controller.wpq.drain_all()
        assert bonsai_controller.nvm.peek(0) != payload(1)

    def test_counter_increments_per_write(self, bonsai_controller):
        address = line(0)
        counter_address = bonsai_controller.layout.counter_block_for(address)
        bonsai_controller.write(address, payload(1))
        bonsai_controller.write(address, payload(2))
        block = bonsai_controller.counter_cache.peek(counter_address)
        assert block.minor(0) == 2

    def test_wpq_forwarding_before_drain(self, bonsai_controller):
        # Read immediately after write: the line may still be pending.
        bonsai_controller.write(line(9), payload(9))
        assert bonsai_controller.read(line(9)) == payload(9)


class TestIntegrityEnforcement:
    def test_tampered_data_detected(self, bonsai_controller):
        bonsai_controller.write(line(0), payload(1))
        bonsai_controller.wpq.drain_all()
        raw = bytearray(bonsai_controller.nvm.peek(0))
        raw[5] ^= 0xFF
        bonsai_controller.nvm.poke(0, bytes(raw))
        with pytest.raises(IntegrityError):
            bonsai_controller.read(line(0))

    def test_tampered_counter_detected_on_refetch(self):
        controller = make_controller()
        controller.write(line(0), payload(1))
        controller.writeback_all()
        counter_address = controller.layout.counter_block_for(0)
        raw = bytearray(controller.nvm.peek(counter_address))
        raw[0] ^= 1
        controller.nvm.poke(counter_address, bytes(raw))
        controller.counter_cache.drop_all_volatile()
        controller.merkle_cache.drop_all_volatile()
        with pytest.raises(IntegrityError):
            controller.read(line(0))

    def test_tampered_tree_node_detected(self):
        # Counter block 0o1234 hangs in a different nonzero child slot at
        # every level; its sibling 0o1235 is never written and shares
        # every ancestor.  Each stored ancestor level is tampered in turn
        # on a fresh controller.
        for level in STORED_ANCESTOR_LEVELS:
            controller = make_controller()
            layout = controller.layout
            page_bytes = layout.lines_per_counter_block * BLOCK_SIZE
            written, sibling = 0o1234 * page_bytes, 0o1235 * page_bytes
            controller.write(written, payload(1))
            controller.writeback_all()
            node_address = layout.ancestors_of_counter(
                layout.counter_block_for(written)
            )[level - 1]
            # Untampered walks from a cold cache verify, default digests
            # of never-written blocks included.
            for address, expected in (
                (written, payload(1)),
                (sibling, bytes(64)),
            ):
                controller.counter_cache.drop_all_volatile()
                controller.merkle_cache.drop_all_volatile()
                assert controller.read(address) == expected, level
            raw = bytearray(controller.nvm.peek(node_address))
            raw[0] ^= 1
            controller.nvm.poke(node_address, bytes(raw))
            # Cold again: the walk must fetch every level up to the root.
            controller.counter_cache.drop_all_volatile()
            controller.merkle_cache.drop_all_volatile()
            message = (
                rf"Merkle verification failed for block {node_address:#x}$"
            )
            with pytest.raises(IntegrityError, match=message):
                controller.read(written)

    #: (level poked, integrity_checks, meta_fetches, repr(channel.now))
    #: left behind by the failed read: the walk fetches the counter
    #: block and all three stored ancestors, then checks top-down and
    #: stops at the poked level.  Level 0 is the counter block itself.
    FAILED_WALK_ACCOUNTING = [
        (0, 8, 8, "4133.333333333334"),
        (1, 7, 8, "4093.3333333333335"),
        (2, 6, 8, "4053.3333333333335"),
        (3, 5, 8, "4013.3333333333335"),
    ]

    @pytest.mark.parametrize(
        "level, checks, fetches, now", FAILED_WALK_ACCOUNTING
    )
    def test_failed_walk_accounting(self, level, checks, fetches, now):
        controller = make_controller()
        layout = controller.layout
        assert layout.root_level == 4
        written = 0o1234 * layout.lines_per_counter_block * BLOCK_SIZE
        controller.write(written, payload(1))
        controller.writeback_all()
        counter_address = layout.counter_block_for(written)
        target = (
            [counter_address] + layout.ancestors_of_counter(counter_address)
        )[level]
        raw = bytearray(controller.nvm.peek(target))
        raw[0] ^= 1
        controller.nvm.poke(target, bytes(raw))
        controller.counter_cache.drop_all_volatile()
        controller.merkle_cache.drop_all_volatile()
        # A gap that is not a whole number of ns makes every later add
        # round, so the clock pins the order of the latency adds.
        controller.channel.advance(10_000 / 3)
        message = rf"Merkle verification failed for block {target:#x}$"
        with pytest.raises(IntegrityError, match=message):
            controller.read(written)
        assert (
            controller.integrity_checks,
            controller.meta_fetches,
            repr(controller.channel.now),
        ) == (checks, fetches, now)
        # Nothing was filled: a failed walk caches no ancestor.
        assert controller.counter_cache.occupancy == 0
        assert controller.merkle_cache.occupancy == 0
        assert controller.nvm.reads == 8

    def test_counter_replay_detected(self):
        """Replaying an older (validly formatted) counter block must be
        caught by the Merkle tree — the attack motivating the tree."""
        controller = make_controller()
        counter_address = controller.layout.counter_block_for(0)
        controller.write(line(0), payload(1))
        controller.writeback_all()
        old_counter = controller.nvm.peek(counter_address)
        controller.write(line(0), payload(2))
        controller.writeback_all()
        controller.nvm.poke(counter_address, old_counter)  # replay
        controller.counter_cache.drop_all_volatile()
        controller.merkle_cache.drop_all_volatile()
        with pytest.raises(IntegrityError):
            controller.read(line(0))


class TestEagerUpdates:
    def test_root_changes_on_every_write(self, bonsai_controller):
        roots = [bonsai_controller.engine.root_value()]
        for index in range(3):
            bonsai_controller.write(line(index), payload(index))
            roots.append(bonsai_controller.engine.root_value())
        assert len(set(roots)) == 4

    def test_ancestors_marked_dirty(self, bonsai_controller):
        bonsai_controller.write(line(0), payload(1))
        counter_address = bonsai_controller.layout.counter_block_for(0)
        for node_address in bonsai_controller.layout.ancestors_of_counter(
            counter_address
        ):
            assert bonsai_controller.merkle_cache.is_dirty(node_address)

    def test_refetch_after_eviction_verifies(self):
        # Fill the tiny counter cache far past capacity, then read
        # everything back — every refetch must verify against the tree.
        controller = make_controller()
        lines = [line(index * 64) for index in range(300)]  # distinct pages
        for index, address in enumerate(lines):
            controller.write(address, payload(index % 250))
        for index, address in enumerate(lines):
            assert controller.read(address) == payload(index % 250)


class TestStrictPersistence:
    def test_metadata_in_memory_always_current(self):
        controller = make_controller(SchemeKind.STRICT_PERSISTENCE)
        for index in range(10):
            controller.write(line(index), payload(index))
        controller.wpq.drain_all()
        # Without any writeback, memory must already match the root.
        rebuilt = controller.engine.rebuild_root(controller.nvm.peek)
        assert rebuilt == controller.engine.root_node

    def test_cached_blocks_left_clean(self):
        controller = make_controller(SchemeKind.STRICT_PERSISTENCE)
        controller.write(line(0), payload(1))
        counter_address = controller.layout.counter_block_for(0)
        assert not controller.counter_cache.is_dirty(counter_address)

    def test_many_more_persists_than_baseline(self):
        baseline = make_controller(SchemeKind.WRITE_BACK)
        strict = make_controller(SchemeKind.STRICT_PERSISTENCE)
        for controller in (baseline, strict):
            for index in range(50):
                controller.write(line(index), payload(index))
        # Every strict write pushes data + counter + the whole ancestor
        # path into the persistent domain (≈ tree depth per write).
        assert strict.persist_writes > 4 * baseline.persist_writes


class TestOsirisStopLoss:
    def test_counter_persisted_every_nth_update(self):
        controller = make_controller(SchemeKind.OSIRIS)
        counter_address = controller.layout.counter_block_for(0)
        stop_loss = controller.config.encryption.stop_loss_limit
        for _ in range(stop_loss):
            controller.write(line(0), payload(0))
        controller.wpq.drain_all()
        from repro.counters.split import SplitCounterBlock

        memory_block = SplitCounterBlock.from_bytes(
            controller.nvm.peek(counter_address)
        )
        assert memory_block.minor(0) == stop_loss

    def test_memory_counter_never_lags_beyond_stop_loss(self):
        controller = make_controller(SchemeKind.OSIRIS)
        counter_address = controller.layout.counter_block_for(0)
        stop_loss = controller.config.encryption.stop_loss_limit
        from repro.counters.split import SplitCounterBlock

        for total in range(1, 20):
            controller.write(line(0), payload(total))
            controller.wpq.drain_all()
            memory_block = SplitCounterBlock.from_bytes(
                controller.nvm.peek(counter_address)
            )
            assert total - memory_block.minor(0) < stop_loss

    def test_write_back_never_persists_counters(self):
        controller = make_controller(SchemeKind.WRITE_BACK)
        counter_address = controller.layout.counter_block_for(0)
        for index in range(10):
            controller.write(line(0), payload(index))
        controller.wpq.drain_all()
        assert not controller.nvm.is_written(counter_address)


class TestPageReencryption:
    def test_minor_overflow_reencrypts_page(self):
        controller = make_controller(SchemeKind.OSIRIS)
        # Write two lines of page 0, then overflow line 0's minor.
        controller.write(line(1), payload(50))
        for index in range(128):
            controller.write(line(0), payload(index % 250))
        assert controller.page_reencryptions == 1
        counter_address = controller.layout.counter_block_for(0)
        block = controller.counter_cache.peek(counter_address)
        assert block.major == 1
        # Both lines still decrypt under the new major.
        assert controller.read(line(0)) == payload(127 % 250)
        assert controller.read(line(1)) == payload(50)

    def test_overflow_persists_counter_block(self):
        controller = make_controller(SchemeKind.WRITE_BACK)
        counter_address = controller.layout.counter_block_for(0)
        for index in range(128):
            controller.write(line(0), payload(index % 250))
        controller.wpq.drain_all()
        assert controller.nvm.is_written(counter_address)

    def test_untouched_lines_skip_reencryption(self):
        controller = make_controller()
        for index in range(128):
            controller.write(line(0), payload(index % 250))
        # line 2 of page 0 never written: still reads zero
        assert controller.read(line(2)) == bytes(64)


class TestShutdown:
    def test_writeback_all_matches_root(self, bonsai_controller):
        for index in range(30):
            bonsai_controller.write(line(index * 64), payload(index))
        bonsai_controller.writeback_all()
        rebuilt = bonsai_controller.engine.rebuild_root(
            bonsai_controller.nvm.peek
        )
        assert rebuilt == bonsai_controller.engine.root_node

    def test_writeback_all_clears_dirty_bits(self, bonsai_controller):
        bonsai_controller.write(line(0), payload(1))
        bonsai_controller.writeback_all()
        dirty = [
            address
            for _slot, address, _payload, is_dirty in (
                *bonsai_controller.counter_cache.resident(),
                *bonsai_controller.merkle_cache.resident(),
            )
            if is_dirty
        ]
        assert dirty == []


class TestStats:
    def test_data_counters(self, bonsai_controller):
        bonsai_controller.write(line(0), payload(1))
        bonsai_controller.read(line(0))
        assert bonsai_controller.data_writes == 1
        assert bonsai_controller.data_reads == 1

    def test_collect_stats_merges_groups(self, bonsai_controller):
        bonsai_controller.write(line(0), payload(1))
        flat = bonsai_controller.collect_stats()
        assert "ctrl.data_writes" in flat
        assert "nvm.writes" in flat
        assert "wpq.inserts" in flat


class TestNeverWrittenBlocks:
    """Never-written blocks verify against the engine's kept default
    hashes; anything written is hashed afresh."""

    def test_default_hashes_match_fresh_hashes(self, bonsai_controller):
        from repro.crypto.hashes import hash64

        engine = bonsai_controller.engine
        key = bonsai_controller.keys.tree_key
        levels = bonsai_controller.layout.root_level
        assert len(engine.default_hashes) == levels
        for level in range(levels):
            assert engine.default_hashes[level] == hash64(
                key, engine.default_node_bytes(level)
            )

    @pytest.mark.parametrize("depth", [0, 1])
    def test_lost_write_back_rejected(self, depth):
        """A block deleted from NVM after its parent recorded the hash of
        its written-back content reads as never written and must fail."""
        controller = make_controller()
        counter_address = controller.layout.counter_block_for(0)
        lost = (
            [counter_address]
            + controller.layout.ancestors_of_counter(counter_address)
        )[depth]
        controller.write(line(0), payload(1))
        controller.writeback_all()
        assert controller.nvm.is_written(lost)
        del controller.nvm._blocks[lost]
        controller.counter_cache.drop_all_volatile()
        controller.merkle_cache.drop_all_volatile()
        message = f"Merkle verification failed for block {lost:#x}"
        with pytest.raises(IntegrityError, match=message):
            controller.read(line(0))

    def test_never_written_fills_are_distinct(self, bonsai_controller):
        layout = bonsai_controller.layout
        first, second = line(0), line(layout.lines_per_counter_block)
        bonsai_controller.read(first)
        bonsai_controller.read(second)
        cache = bonsai_controller.counter_cache
        block = cache.peek(layout.counter_block_for(first))
        other = cache.peek(layout.counter_block_for(second))
        assert block is not other
        bonsai_controller.write(first, payload(1))
        assert block.minor(0) == 1
        assert other == SplitCounterBlock()

    def test_poked_default_bytes_accepted(self, bonsai_controller):
        counter_address = bonsai_controller.layout.counter_block_for(0)
        bonsai_controller.nvm.poke(counter_address, bytes(64))
        assert bonsai_controller.read(line(0)) == bytes(64)

    @pytest.mark.parametrize("bit", [0, 63, 64, 511])
    def test_bit_flip_in_never_written_block_rejected(
        self, bonsai_controller, bit
    ):
        counter_address = bonsai_controller.layout.counter_block_for(0)
        bonsai_controller.nvm.inject_bit_flip(counter_address, bit)
        message = f"Merkle verification failed for block {counter_address:#x}"
        with pytest.raises(IntegrityError, match=message):
            bonsai_controller.read(line(0))

    def test_bit_flip_in_never_written_node_rejected(self, bonsai_controller):
        layout = bonsai_controller.layout
        node = layout.ancestors_of_counter(layout.counter_block_for(0))[0]
        bonsai_controller.nvm.inject_bit_flip(node, 5)
        message = f"Merkle verification failed for block {node:#x}"
        with pytest.raises(IntegrityError, match=message):
            bonsai_controller.read(line(0))
