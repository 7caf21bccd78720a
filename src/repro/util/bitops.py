"""Bit-width helpers.

The secure-memory metadata formats in this library (split-counter blocks,
SGX version blocks, Anubis shadow-table entries) pack many narrow fields
into 64-byte lines; each codec shifts its fields directly and takes its
field masks from :func:`mask`.
"""

from __future__ import annotations

from repro.errors import ConfigError


def mask(width: int) -> int:
    """Return an integer with the low ``width`` bits set.

    >>> mask(7)
    127
    """
    if width < 0:
        raise ConfigError(f"bit width must be non-negative, got {width}")
    return (1 << width) - 1


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0
