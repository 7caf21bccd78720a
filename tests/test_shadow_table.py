"""Unit and property tests for the Anubis shadow-table structures."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.config import PAGE_SIZE, SchemeKind
from repro.core.recovery_agit import AgitRecovery
from repro.core.recovery_time import STEP_NS
from repro.core.shadow_table import (
    ShadowAddressTable,
    ShadowRegionTree,
    StEntry,
)
from repro.crypto.hashes import hash64
from repro.crypto.keys import ProcessorKeys
from repro.errors import ConfigError
from repro.recovery.crash import crash, reincarnate

from tests.helpers import compute_shadow_root, make_controller, payload


def reference_st_bytes(valid, address, mac, lsbs):
    """Fig. 9b packed bit by bit, LSB first: valid, address bits 1-63,
    the 56-bit MAC, then eight 49-bit LSB fields."""
    fields = [(int(valid), 1), (address >> 1, 63), (mac, 56)]
    fields += [(lsb, 49) for lsb in lsbs]
    bits = [(value >> i) & 1 for value, width in fields for i in range(width)]
    assert len(bits) == 512
    out = bytearray(64)
    for position, bit in enumerate(bits):
        out[position // 8] |= bit << (position % 8)
    return bytes(out)


def _agit_read_recovery(pages):
    """Write one line in each of ``pages`` pages under AGIT-Read (which
    tracks every fill), crash, and recover; returns the report and the
    filled counter- and Merkle-cache slots at the crash."""
    controller = make_controller(SchemeKind.AGIT_READ)
    for page in range(pages):
        controller.write(page * PAGE_SIZE, payload(page))
    filled = [
        {slot for slot, *_rest in cache.resident()}
        for cache in (controller.counter_cache, controller.merkle_cache)
    ]
    crash(controller)
    reborn = reincarnate(controller)
    report = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
    return report, filled


def reference_root(key, blocks):
    """Shadow-tree root built level by level with no sharing: 8-ary,
    child hashes packed little-endian, a ragged last group zero-padded."""
    level = [hash64(key, block) for block in blocks]
    while len(level) > 1:
        above = []
        for start in range(0, len(level), 8):
            group = level[start : start + 8]
            group += [0] * (8 - len(group))
            payload = b"".join(value.to_bytes(8, "little") for value in group)
            above.append(hash64(key, payload))
        level = above
    return level[0]


class TestShadowAddressTable:
    def test_record_returns_group_block(self):
        table = ShadowAddressTable(16)
        group, block = table.record(3, 0x4000)
        assert group == 0
        assert len(block) == 64
        assert ShadowAddressTable.parse_block(block)[3] == 0x4000

    def test_groups_pack_eight_slots(self):
        table = ShadowAddressTable(16)
        group, _ = table.record(8, 0x1000)
        assert group == 1

    def test_record_overwrites_slot(self):
        table = ShadowAddressTable(8)
        table.record(0, 0x1000)
        _group, block = table.record(0, 0x2000)
        assert ShadowAddressTable.parse_block(block)[0] == 0x2000

    def test_tracked_addresses_skip_empty(self):
        # Five counter blocks share the SCT groups with empty slots;
        # recovery tracks exactly the five.
        report = _agit_read_recovery(pages=5)[0]
        assert report.tracked_counter_blocks == 5

    def test_partial_last_group_pads_zero(self):
        table = ShadowAddressTable(10)  # 2 groups, last partly used
        table.record(9, 0x4000)
        block = table.group_bytes(1)
        parsed = ShadowAddressTable.parse_block(block)
        assert parsed[1] == 0x4000
        assert parsed[2:] == [0] * 6

    def test_num_groups(self):
        # Recovery's scan reads one 64B block per written group of eight
        # slots, in the SCT and the SMT.
        report, filled = _agit_read_recovery(pages=5)
        groups = sum(len({slot // 8 for slot in slots}) for slots in filled)
        assert groups < sum(map(len, filled))
        scan = [phase for phase in report.phases if phase["phase"] == "scan"]
        assert scan[0]["analytic_ns"] == groups * STEP_NS

    def test_bad_slot_rejected(self):
        with pytest.raises(ConfigError):
            ShadowAddressTable(8).record(8, 0x1000)

    def test_zero_slots_rejected(self):
        with pytest.raises(ConfigError):
            ShadowAddressTable(0)

    def test_parse_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            ShadowAddressTable.parse_block(b"short")

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=1, max_value=(1 << 40)),
            ),
            max_size=40,
        )
    )
    def test_mirror_matches_blocks_property(self, updates):
        table = ShadowAddressTable(16)
        for slot, raw_address in updates:
            table.record(slot, raw_address * 64)
        for group in range(2):
            parsed = ShadowAddressTable.parse_block(table.group_bytes(group))
            for offset, value in enumerate(parsed):
                assert value == table.slots[group * 8 + offset]


class TestStEntry:
    def test_roundtrip(self):
        entry = StEntry(
            valid=True,
            address=0x123440,
            mac=0xDEADBEEF,
            lsbs=tuple(range(8)),
        )
        assert StEntry.from_bytes(entry.to_bytes()) == entry

    def test_entry_is_64_bytes(self):
        assert len(StEntry.invalid().to_bytes()) == 64

    def test_invalid_entry(self):
        entry = StEntry.invalid()
        assert not entry.valid
        parsed = StEntry.from_bytes(entry.to_bytes())
        assert not parsed.valid

    def test_valid_bit_in_alignment_bits(self):
        entry = StEntry(valid=True, address=0x1000, mac=0, lsbs=(0,) * 8)
        raw = entry.to_bytes()
        assert raw[0] & 1 == 1
        assert StEntry.from_bytes(raw).address == 0x1000

    def test_wrong_lsb_count_rejected(self):
        with pytest.raises(ConfigError):
            StEntry(True, 0, 0, (0,) * 7).to_bytes()

    def test_from_bytes_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            StEntry.from_bytes(b"x")
        with pytest.raises(ConfigError):
            StEntry.from_bytes(bytes(65))

    def test_invalid_entry_is_shared_and_all_zero(self):
        assert StEntry.invalid() is StEntry.invalid()
        assert StEntry.invalid().to_bytes() == bytes(64)

    @given(
        st.booleans(),
        st.integers(min_value=0, max_value=(1 << 63) - 1),
        st.integers(min_value=0, max_value=(1 << 56) - 1),
        st.lists(
            st.integers(min_value=0, max_value=(1 << 49) - 1),
            min_size=8,
            max_size=8,
        ),
    )
    @example(True, (1 << 63) - 1, (1 << 56) - 1, [(1 << 49) - 1] * 8)
    def test_layout_matches_reference_packer(self, valid, half, mac, lsbs):
        address = half << 1  # bit 0 is the valid bit
        entry = StEntry(
            valid=valid, address=address, mac=mac, lsbs=tuple(lsbs)
        )
        raw = reference_st_bytes(valid, address, mac, lsbs)
        assert entry.to_bytes() == raw
        assert StEntry.from_bytes(raw) == entry

    @given(
        st.booleans(),
        st.integers(min_value=0, max_value=(1 << 58) - 1),
        st.integers(min_value=0, max_value=(1 << 56) - 1),
        st.lists(
            st.integers(min_value=0, max_value=(1 << 49) - 1),
            min_size=8,
            max_size=8,
        ),
    )
    def test_roundtrip_property(self, valid, block_index, mac, lsbs):
        entry = StEntry(
            valid=valid, address=block_index * 64, mac=mac, lsbs=tuple(lsbs)
        )
        assert StEntry.from_bytes(entry.to_bytes()) == entry


class _CountingHash:
    """Wraps a tree's keyed hash and counts the digests it computes."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def value(self, payload):
        self.calls += 1
        return self.inner.value(payload)


class TestShadowRegionTree:
    @pytest.fixture
    def key(self):
        return ProcessorKeys(1).shadow_key

    def test_fresh_tree_matches_zero_blocks(self, key):
        tree = ShadowRegionTree(key, 20)
        blocks = {index: bytes(64) for index in range(20)}
        root = compute_shadow_root(key, 20, lambda i: blocks[i])
        assert root == tree.root

    def test_update_changes_root(self, key):
        tree = ShadowRegionTree(key, 20)
        before = tree.root
        tree.update(3, b"\x01" * 64)
        assert tree.root != before

    def test_update_then_recompute_matches(self, key):
        tree = ShadowRegionTree(key, 20)
        blocks = {index: bytes(64) for index in range(20)}
        for index, content in [(0, b"\x01" * 64), (13, b"\x02" * 64)]:
            tree.update(index, content)
            blocks[index] = content
        root = compute_shadow_root(key, 20, lambda i: blocks[i])
        assert root == tree.root

    def test_tamper_detected(self, key):
        tree = ShadowRegionTree(key, 20)
        tree.update(0, b"\x01" * 64)
        blocks = {index: bytes(64) for index in range(20)}
        blocks[0] = b"\x01" * 64
        blocks[5] = b"\xff" * 64  # attacker edit
        root = compute_shadow_root(key, 20, lambda i: blocks[i])
        assert root != tree.root

    def test_update_reports_hash_count(self, key):
        tree = ShadowRegionTree(key, 64)  # levels: 64 -> 8 -> 1
        assert tree.update(0, b"\x01" * 64) == 3

    @pytest.mark.parametrize("leaves,depth", [(1, 1), (9, 3), (4097, 6)])
    def test_update_reports_eager_path_length(self, key, leaves, depth):
        # The hardware hashes one leaf-to-root path per ST write, whether
        # or not the root has been read since.
        tree = ShadowRegionTree(key, leaves)
        assert len(tree.levels) == depth
        assert tree.update(leaves - 1, b"\x01" * 64) == depth
        assert tree.update(leaves - 1, b"\x02" * 64) == depth
        tree.root  # flushes the pending leaf
        assert tree.update(0, b"\x03" * 64) == depth

    @pytest.mark.parametrize("leaves", [9, 64, 4097])
    def test_root_read_hashes_each_dirty_node_once(self, key, leaves):
        tree = ShadowRegionTree(key, leaves)
        counted = _CountingHash(tree._hash)
        tree._hash = counted
        touched = sorted({0, 1, 7, 8, leaves // 2, leaves - 1})
        for index in touched:
            tree.update(index, index.to_bytes(64, "little"))
        tree.update(touched[0], b"\xee" * 64)  # a repeat costs nothing more
        assert counted.calls == 0
        root = tree.root
        expected = len(touched)  # one hash per pending leaf
        dirty = set(touched)
        for _level in range(1, len(tree.levels)):
            dirty = {index // 8 for index in dirty}
            expected += len(dirty)
        assert counted.calls == expected
        assert tree.root == root
        assert counted.calls == expected  # a clean read hashes nothing

    @given(
        st.integers(min_value=1, max_value=80),
        st.lists(
            st.one_of(
                st.tuples(
                    st.integers(min_value=0),
                    st.binary(min_size=64, max_size=64),
                ),
                st.none(),
            ),
            max_size=40,
        ),
    )
    @example(
        9, [(8, b"\x01" * 64), None, (8, b"\x02" * 64), (0, bytes(64)), None]
    )
    def test_root_reads_match_recomputation(self, leaves, operations):
        """Interleaved updates (repeats included) and root reads: every
        read equals the root recomputed over the current blocks."""
        key = ProcessorKeys(1).shadow_key
        tree = ShadowRegionTree(key, leaves)
        blocks = [bytes(64)] * leaves
        for operation in operations + [None]:
            if operation is None:
                expected = compute_shadow_root(
                    key, leaves, blocks.__getitem__
                )
                assert tree.root == expected
            else:
                index = operation[0] % leaves
                blocks[index] = operation[1]
                tree.update(index, operation[1])

    def test_single_leaf_tree(self, key):
        tree = ShadowRegionTree(key, 1)
        tree.update(0, b"\x05" * 64)
        root = compute_shadow_root(
            key, 1, lambda i: b"\x05" * 64
        )
        assert root == tree.root

    def test_bad_leaf_index_rejected(self, key):
        with pytest.raises(ConfigError):
            ShadowRegionTree(key, 4).update(4, bytes(64))

    @pytest.mark.parametrize("leaf", [-1, 4])
    def test_bad_leaf_in_block_map_rejected(self, key, leaf):
        with pytest.raises(ConfigError):
            ShadowRegionTree(key, 4, {leaf: b"\x01" * 64})

    def test_zero_leaves_rejected(self, key):
        with pytest.raises(ConfigError):
            ShadowRegionTree(key, 0)

    @pytest.mark.parametrize("leaves", [1, 8, 9, 64, 4097])
    def test_fresh_root_matches_reference(self, key, leaves):
        expected = reference_root(key, [bytes(64)] * leaves)
        assert ShadowRegionTree(key, leaves).root == expected
        zero = compute_shadow_root(key, leaves, lambda i: bytes(64))
        assert zero == expected

    @pytest.mark.parametrize("leaves", [9, 64, 4097])
    def test_reader_root_matches_reference(self, key, leaves):
        # Repeated non-zero blocks make equal groups of non-empty leaves;
        # some start with a zero byte, like an entry with its valid bit
        # clear.
        blocks = [
            bytes(index % 2) + bytes([index % 3 + 1]) * (64 - index % 2)
            if index % 5 < 2
            else bytes(64)
            for index in range(leaves)
        ]
        # The constructor takes only the non-zero blocks, as recovery
        # passes it only the written ones.
        tree = ShadowRegionTree(key, leaves, {
            index: block
            for index, block in enumerate(blocks)
            if block != bytes(64)
        })
        assert tree.root == reference_root(key, blocks)
        blocks[leaves - 1] = b"\x07" * 64
        tree.update(leaves - 1, blocks[leaves - 1])
        assert tree.root == reference_root(key, blocks)

    def test_keyed(self):
        tree_a = ShadowRegionTree(ProcessorKeys(1).shadow_key, 8)
        tree_b = ShadowRegionTree(ProcessorKeys(2).shadow_key, 8)
        assert tree_a.root != tree_b.root
