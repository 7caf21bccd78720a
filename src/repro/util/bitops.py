"""Bit-level packing helpers.

The secure-memory metadata formats in this library (split-counter blocks,
SGX version blocks, Anubis shadow-table entries) pack many narrow fields
into 64-byte lines.  These helpers treat a line as one big little-endian
integer and pack or split its bit fields.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

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


def bits_to_bytes(bits: int) -> int:
    """Smallest byte count that can hold ``bits`` bits."""
    return (bits + 7) // 8


def pack_fields(fields: Sequence[Tuple[int, int]]) -> int:
    """Pack ``(value, width)`` pairs into one integer, LSB-first.

    The first pair occupies the lowest-order bits.

    >>> hex(pack_fields([(0xA, 4), (0xB, 4)]))
    '0xba'
    """
    word = 0
    offset = 0
    for value, width in fields:
        if value < 0 or value > mask(width):
            raise ConfigError(f"value {value} does not fit in {width} bits")
        word |= value << offset
        offset += width
    return word


def unpack_fields(word: int, widths: Iterable[int]) -> List[int]:
    """Inverse of :func:`pack_fields`: split ``word`` into fields, LSB-first.

    >>> unpack_fields(0xBA, [4, 4])
    [10, 11]
    """
    values = []
    offset = 0
    for width in widths:
        values.append((word >> offset) & mask(width))
        offset += width
    return values


def int_to_block(word: int, size: int) -> bytes:
    """Serialize ``word`` to ``size`` little-endian bytes."""
    return word.to_bytes(size, "little")


def block_to_int(block: bytes) -> int:
    """Deserialize a little-endian byte block to an integer."""
    return int.from_bytes(block, "little")
