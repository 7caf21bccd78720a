"""Unit and property tests for bit-packing helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.util.bitops import (
    bits_to_bytes,
    block_to_int,
    int_to_block,
    is_power_of_two,
    mask,
    pack_fields,
    unpack_fields,
)


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 1
        assert mask(7) == 127
        assert mask(8) == 255

    def test_wide(self):
        assert mask(64) == (1 << 64) - 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            mask(-1)


class TestPowerOfTwo:
    def test_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_non_powers(self):
        for value in (0, 3, 6, 12, 100, -4):
            assert not is_power_of_two(value)


class TestBitsToBytes:
    def test_exact(self):
        assert bits_to_bytes(64) == 8

    def test_round_up(self):
        assert bits_to_bytes(49) == 7
        assert bits_to_bytes(1) == 1

    def test_zero(self):
        assert bits_to_bytes(0) == 0


class TestPackUnpack:
    def test_doc_example(self):
        assert pack_fields([(0xA, 4), (0xB, 4)]) == 0xBA

    def test_empty(self):
        assert pack_fields([]) == 0
        assert unpack_fields(0, []) == []

    def test_value_too_wide_rejected(self):
        with pytest.raises(ConfigError):
            pack_fields([(16, 4)])
        with pytest.raises(ConfigError):
            pack_fields([(-1, 4)])

    def test_unpack_inverse(self):
        fields = [(3, 2), (100, 7), (1, 1), (65535, 16)]
        packed = pack_fields(fields)
        assert unpack_fields(packed, [2, 7, 1, 16]) == [3, 100, 1, 65535]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=24),
                st.integers(min_value=0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_roundtrip_property(self, width_value_pairs):
        fields = [
            (value & mask(width), width) for width, value in width_value_pairs
        ]
        widths = [width for _value, width in fields]
        packed = pack_fields(fields)
        assert unpack_fields(packed, widths) == [value for value, _w in fields]


class TestBlockConversion:
    def test_roundtrip(self):
        assert block_to_int(int_to_block(12345, 64)) == 12345

    def test_little_endian(self):
        assert int_to_block(1, 4) == b"\x01\x00\x00\x00"

    @given(st.binary(min_size=64, max_size=64))
    def test_bytes_roundtrip_property(self, raw):
        assert int_to_block(block_to_int(raw), 64) == raw
