"""Unit tests for the bit-width helpers."""

import pytest

from repro.errors import ConfigError
from repro.util.bitops import is_power_of_two, mask


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
