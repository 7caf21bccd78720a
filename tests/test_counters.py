"""Unit and property tests for the counter-block codecs."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.counters.sgx import SgxCounterBlock
from repro.counters.split import SplitCounterBlock, pack_word
from repro.errors import ConfigError


class TestSplitCounterBasics:
    def test_fresh_block_is_zero(self):
        block = SplitCounterBlock()
        assert block.major == 0
        assert all(minor == 0 for minor in block.minors)
        zero = SplitCounterBlock.zero()
        assert zero == block == SplitCounterBlock.from_bytes(bytes(64))
        assert SplitCounterBlock.zero().minors is not zero.minors

    def test_zero_block_serializes_to_zeros(self):
        # Load-bearing: untouched NVM (zeros) must parse as a fresh
        # counter block, which is what makes lazy-zero init sound.
        assert SplitCounterBlock().to_bytes() == bytes(64)

    def test_increment(self):
        block = SplitCounterBlock()
        assert block.increment(5) is False
        assert block.minor(5) == 1
        assert block.minor(4) == 0

    def test_iv_pair(self):
        block = SplitCounterBlock(major=9)
        block.increment(3)
        assert block.iv_pair(3) == (9, 1)

    def test_minor_overflow_bumps_major_and_resets(self):
        block = SplitCounterBlock()
        for _ in range(127):
            assert block.increment(0) is False
        assert block.minor(0) == 127
        assert block.increment(0) is True
        assert block.major == 1
        assert all(minor == 0 for minor in block.minors)

    def test_overflow_resets_other_minors_too(self):
        block = SplitCounterBlock()
        block.increment(1)
        block.minors[0] = 127
        block.increment(0)
        assert block.minor(1) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            SplitCounterBlock(minors=[0] * 63)
        with pytest.raises(ConfigError):
            SplitCounterBlock(minors=[128] + [0] * 63)

    def test_copy_is_independent(self):
        block = SplitCounterBlock()
        clone = block.copy()
        block.increment(0)
        assert clone.minor(0) == 0

    def test_equality(self):
        a = SplitCounterBlock(major=1)
        b = SplitCounterBlock(major=1)
        assert a == b
        b.increment(0)
        assert a != b


class TestSplitCounterWire:
    def test_roundtrip(self):
        block = SplitCounterBlock(major=12345)
        for slot in (0, 7, 63):
            block.increment(slot)
        assert SplitCounterBlock.from_bytes(block.to_bytes()) == block

    def test_wrong_size_rejected(self):
        with pytest.raises(ConfigError):
            SplitCounterBlock.from_bytes(b"short")

    def test_block_is_64_bytes(self):
        assert len(SplitCounterBlock().to_bytes()) == 64

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.lists(
            st.integers(min_value=0, max_value=127), min_size=64, max_size=64
        ),
    )
    def test_roundtrip_property(self, major, minors):
        block = SplitCounterBlock(major, minors)
        assert SplitCounterBlock.from_bytes(block.to_bytes()) == block

    @given(st.binary(min_size=64, max_size=64))
    def test_from_bytes_matches_checked_constructor(self, raw):
        word = int.from_bytes(raw, "little")
        expected = SplitCounterBlock(
            word & ((1 << 64) - 1),
            [(word >> (64 + 7 * i)) & 127 for i in range(64)],
        )
        decoded = SplitCounterBlock.from_bytes(raw)
        assert decoded == expected
        # 64 + 64 x 7 bits fill the block exactly: every byte survives.
        assert decoded.to_bytes() == raw


def _field_loop_bytes(major, minors):
    """The per-field reference packing: one shift per minor."""
    word = major
    for i, minor in enumerate(minors):
        word |= minor << (64 + 7 * i)
    return word.to_bytes(64, "little")


def _field_loop_parse(raw):
    word = int.from_bytes(raw, "little")
    minors = [(word >> (64 + 7 * i)) & 127 for i in range(64)]
    return word & ((1 << 64) - 1), minors


class TestSplitCounterCodec:
    """The lane-packing codec against the per-field reference loop."""

    def _cases(self):
        rng = random.Random(2019)
        cases = [
            (0, [0] * 64),
            (0, [0x7F] * 64),
            ((1 << 64) - 1, [0] * 64),
            ((1 << 64) - 1, [0x7F] * 64),
        ]
        for _ in range(300):
            cases.append(
                (rng.getrandbits(64), [rng.randrange(128) for _ in range(64)])
            )
        return cases

    def test_pack_matches_field_loop(self):
        for major, minors in self._cases():
            expected = _field_loop_bytes(major, minors)
            assert SplitCounterBlock(major, minors).to_bytes() == expected
            assert pack_word(major, minors) == int.from_bytes(
                expected, "little"
            )

    def test_parse_matches_field_loop(self):
        for major, minors in self._cases():
            raw = _field_loop_bytes(major, minors)
            block = SplitCounterBlock.from_bytes(raw)
            assert (block.major, block.minors) == _field_loop_parse(raw)
            assert (block.major, block.minors) == (major, minors)


class TestSgxCounterBasics:
    def test_fresh_block(self):
        block = SgxCounterBlock()
        assert block.counters == [0] * 8
        assert block.mac == 0

    def test_increment(self):
        block = SgxCounterBlock()
        assert block.increment(2) is False
        assert block.counter(2) == 1

    def test_56_bit_overflow_wraps(self):
        block = SgxCounterBlock(counters=[(1 << 56) - 1] + [0] * 7)
        assert block.increment(0) is True
        assert block.counter(0) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            SgxCounterBlock(counters=[0] * 7)
        with pytest.raises(ConfigError):
            SgxCounterBlock(counters=[1 << 56] + [0] * 7)


class TestSgxLsbSupport:
    def test_lsbs_extracts_low_bits(self):
        block = SgxCounterBlock(counters=[(1 << 50) | 5] + [0] * 7)
        assert block.lsbs(49)[0] == 5

    def test_splice_replaces_lsbs_and_mac(self):
        stale = SgxCounterBlock(counters=[(7 << 49) | 3] + [0] * 7, mac=1)
        stale.splice_lsbs([9] + [0] * 7, mac=42, lsb_bits=49)
        assert stale.counter(0) == (7 << 49) | 9
        assert stale.mac == 42

    def test_splice_wrong_count_rejected(self):
        with pytest.raises(ConfigError):
            SgxCounterBlock().splice_lsbs([0] * 7, 0, 49)

    def test_splice_reconstructs_after_wrap_persist(self):
        # The §4.3.1 protocol: the node is persisted right after the
        # LSB wrap, so memory MSBs include the carry; shadow LSBs then
        # advance from zero.
        true_counter = (1 << 49) + 17
        memory = SgxCounterBlock(counters=[1 << 49] + [0] * 7)
        memory.splice_lsbs([17] + [0] * 7, mac=0, lsb_bits=49)
        assert memory.counter(0) == true_counter


class TestSgxWire:
    def test_roundtrip(self):
        block = SgxCounterBlock(counters=list(range(8)), mac=0xABCDEF)
        assert SgxCounterBlock.from_bytes(block.to_bytes()) == block

    def test_block_is_64_bytes(self):
        assert len(SgxCounterBlock().to_bytes()) == 64

    def test_wrong_size_rejected(self):
        with pytest.raises(ConfigError):
            SgxCounterBlock.from_bytes(b"x")

    @given(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 56) - 1),
            min_size=8,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=(1 << 56) - 1),
    )
    def test_roundtrip_property(self, counters, mac):
        block = SgxCounterBlock(counters, mac)
        assert SgxCounterBlock.from_bytes(block.to_bytes()) == block

    @given(st.binary(min_size=64, max_size=64))
    def test_from_bytes_matches_checked_constructor(self, raw):
        word = int.from_bytes(raw, "little")
        field = (1 << 56) - 1
        expected = SgxCounterBlock(
            [(word >> (56 * i)) & field for i in range(8)],
            (word >> 448) & field,
        )
        decoded = SgxCounterBlock.from_bytes(raw)
        assert decoded == expected
        # Bits 504..511 are padding, dropped on decode.
        assert decoded.to_bytes() == raw[:63] + b"\x00"

    @pytest.mark.parametrize("bad", [1 << 56, -1])
    def test_to_bytes_rejects_out_of_range_counter(self, bad):
        block = SgxCounterBlock()
        block.counters[3] = bad
        with pytest.raises(ConfigError):
            block.to_bytes()

    @pytest.mark.parametrize("bad", [1 << 56, -1])
    def test_to_bytes_rejects_out_of_range_mac(self, bad):
        block = SgxCounterBlock()
        block.mac = bad
        with pytest.raises(ConfigError):
            block.to_bytes()

    def test_copy_is_independent(self):
        block = SgxCounterBlock()
        clone = block.copy()
        block.increment(0)
        assert clone.counter(0) == 0
