"""Split-counter blocks (§2.2, Fig. 1).

One 64B block per 4KB page: a 64-bit *major* counter shared by the page
plus 64 seven-bit *minor* counters, one per cache line.  A line's IV is
(address, major, minor).  When a minor counter overflows, the major is
incremented, every minor resets to zero, and the whole page must be
re-encrypted under the new major — the caller (controller) performs the
re-encryption.

The bit budget is exact: 64 + 64×7 = 512 bits = 64 bytes.
"""

from __future__ import annotations

from typing import List

from repro.config import BLOCK_SIZE
from repro.errors import ConfigError
from repro.util.bitops import mask

_MINOR_BITS = 7
_MAJOR_BITS = 64
_MINORS_PER_BLOCK = 64
_MINOR_MAX = mask(_MINOR_BITS)


def _lane_steps() -> tuple:
    """``(low, high, gap)`` masks that pack 8-bit lanes of 7-bit minors
    into the contiguous 448-bit minor field, one lane width per step.

    At lane width ``w`` (16, 32, .. 512 bits) each lane holds two
    half-lanes of ``p`` payload bits each (7, 14, .. 224): the low one
    stays and the high one moves down by ``w/2 - p`` to sit right
    above it.  The first three steps pack each group of eight minors
    into its 7 bytes; the last three join the eight groups.
    """
    steps = []
    width, payload = 16, _MINOR_BITS
    while width <= _MINORS_PER_BLOCK * 8:
        half = width // 2
        low = sum(
            mask(payload) << base
            for base in range(0, _MINORS_PER_BLOCK * 8, width)
        )
        steps.append((low, low << half, half - payload))
        width *= 2
        payload *= 2
    return tuple(steps)


_PACK_STEPS = _lane_steps()
_UNPACK_STEPS = _PACK_STEPS[::-1]


def pack_word(major: int, minors: "List[int]") -> int:
    """The 512-bit wire word: ``major`` in bits [0, 64), minor *i* at
    bit 64 + 7i.  The minors (each below 128) are packed as bytes,
    whose lanes the masks of :func:`_lane_steps` squeeze together."""
    word = int.from_bytes(bytes(minors), "little")
    for low, high, gap in _PACK_STEPS:
        word = (word & low) | (word & high) >> gap
    return major | word << _MAJOR_BITS


class SplitCounterBlock:
    """Mutable split-counter block for one page."""

    __slots__ = ("major", "minors")

    minors_per_block = _MINORS_PER_BLOCK
    minor_bits = _MINOR_BITS

    def __init__(self, major: int = 0, minors: "List[int] | None" = None) -> None:
        if minors is None:
            minors = [0] * _MINORS_PER_BLOCK
        if len(minors) != _MINORS_PER_BLOCK:
            raise ConfigError(
                f"split-counter block needs {_MINORS_PER_BLOCK} minors"
            )
        for minor in minors:
            if not 0 <= minor <= _MINOR_MAX:
                raise ConfigError(f"minor counter {minor} out of 7-bit range")
        self.major = major & mask(_MAJOR_BITS)
        self.minors = list(minors)

    @classmethod
    def zero(cls) -> "SplitCounterBlock":
        """A fresh all-zero block, the value of a never-written page.

        Equal to ``SplitCounterBlock()`` and to ``from_bytes`` of 64 zero
        bytes, without the constructor's range loop or a parse.  Every
        call returns its own minors list.
        """
        block = cls.__new__(cls)
        block.major = 0
        block.minors = [0] * _MINORS_PER_BLOCK
        return block

    def minor(self, slot: int) -> int:
        """Read the minor counter of line ``slot`` (0..63)."""
        return self.minors[slot]

    def increment(self, slot: int) -> bool:
        """Bump line ``slot``'s minor; returns True on overflow.

        On overflow the major is incremented and *all* minors reset —
        the caller must re-encrypt the whole page under the new major.
        """
        if self.minors[slot] < _MINOR_MAX:
            self.minors[slot] += 1
            return False
        self.major = (self.major + 1) & mask(_MAJOR_BITS)
        self.minors = [0] * _MINORS_PER_BLOCK
        return True

    def iv_pair(self, slot: int) -> "tuple[int, int]":
        """(major, minor) pair feeding the line's IV."""
        return self.major, self.minors[slot]

    # ------------------------------------------------------------------
    # 64B wire format
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: major in bits [0,64), minor *i* at 64 + 7i."""
        return pack_word(self.major, self.minors).to_bytes(
            BLOCK_SIZE, "little"
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SplitCounterBlock":
        """Inverse of :meth:`to_bytes`."""
        if len(raw) != BLOCK_SIZE:
            raise ConfigError(f"counter block must be {BLOCK_SIZE} bytes")
        # The inverse of pack_word: spread the minor field back into one
        # byte per minor.  Masked fields are in range by construction,
        # so the checked constructor's range loop is skipped.
        word = int.from_bytes(raw[_MAJOR_BITS // 8 :], "little")
        for low, high, gap in _UNPACK_STEPS:
            word = (word & low) | (word << gap & high)
        block = cls.__new__(cls)
        block.major = int.from_bytes(raw[: _MAJOR_BITS // 8], "little")
        block.minors = list(word.to_bytes(_MINORS_PER_BLOCK, "little"))
        return block

    def copy(self) -> "SplitCounterBlock":
        """Deep copy (controllers snapshot blocks before mutation)."""
        return SplitCounterBlock(self.major, list(self.minors))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SplitCounterBlock)
            and other.major == self.major
            and other.minors == self.minors
        )

    def __hash__(self) -> int:  # pragma: no cover - blocks are dict values
        return hash((self.major, tuple(self.minors)))

    def __repr__(self) -> str:
        touched = sum(1 for minor in self.minors if minor)
        return (
            f"SplitCounterBlock(major={self.major}, "
            f"touched_minors={touched}/{_MINORS_PER_BLOCK})"
        )
