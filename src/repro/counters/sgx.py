"""SGX-style counter/version blocks (§2.3.2, Fig. 3, Fig. 9b).

Every node of an SGX-style integrity tree — leaf version blocks and
intermediate nodes alike — has the same shape: eight 56-bit counters
(nonces) plus one 56-bit MAC.  The MAC is computed over the node's
counters and *one counter in the parent node* (the parent nonce that
versions this node), which is what makes updates parallelizable and
reconstruction-from-leaves impossible.

Bit budget: 8×56 + 56 = 504 bits, padded to 512 bits = 64 bytes.
"""

from __future__ import annotations

from typing import List

from repro.config import BLOCK_SIZE
from repro.errors import ConfigError
from repro.util.bitops import mask

_COUNTER_BITS = 56
_COUNTERS_PER_BLOCK = 8
_MAC_BITS = 56
_COUNTER_MAX = mask(_COUNTER_BITS)
_MAC_MAX = mask(_MAC_BITS)
_MAC_OFFSET = _COUNTERS_PER_BLOCK * _COUNTER_BITS
#: The byte that pads the 504-bit node to its 64-byte line.
_PAD = bytes(BLOCK_SIZE - (_MAC_OFFSET + _MAC_BITS) // 8)


class SgxCounterBlock:
    """Mutable SGX tree node: 8 × 56-bit counters + 56-bit MAC."""

    __slots__ = ("counters", "mac")

    counters_per_block = _COUNTERS_PER_BLOCK
    counter_bits = _COUNTER_BITS

    def __init__(
        self, counters: "List[int] | None" = None, mac: int = 0
    ) -> None:
        if counters is None:
            counters = [0] * _COUNTERS_PER_BLOCK
        if len(counters) != _COUNTERS_PER_BLOCK:
            raise ConfigError(
                f"SGX block needs {_COUNTERS_PER_BLOCK} counters"
            )
        for counter in counters:
            if not 0 <= counter <= _COUNTER_MAX:
                raise ConfigError(f"counter {counter} out of 56-bit range")
        self.counters = list(counters)
        self.mac = mac & mask(_MAC_BITS)

    def counter(self, slot: int) -> int:
        """Read counter ``slot`` (0..7)."""
        return self.counters[slot]

    def increment(self, slot: int) -> bool:
        """Bump counter ``slot``; returns True on (very rare) overflow."""
        if self.counters[slot] < _COUNTER_MAX:
            self.counters[slot] += 1
            return False
        self.counters[slot] = 0
        return True

    # ------------------------------------------------------------------
    # ASIT shadow-table support (§4.3.1)
    # ------------------------------------------------------------------

    def lsbs(self, lsb_bits: int) -> List[int]:
        """The low ``lsb_bits`` bits of every counter — the part an ASIT
        Shadow Table entry stores (49 bits each by default)."""
        lsb_mask = mask(lsb_bits)
        return [counter & lsb_mask for counter in self.counters]

    def splice_lsbs(self, lsb_values: List[int], mac: int, lsb_bits: int) -> None:
        """ASIT recovery splice: replace each counter's LSBs (keeping the
        stale copy's MSBs) and the MAC with shadow-table values.

        If a shadow LSB value is *smaller* than the stale copy's LSBs,
        the counter advanced past an LSB wrap after the node was last
        persisted — impossible, because ASIT persists the node on every
        LSB wrap — so no MSB carry correction is ever needed.  A shadow
        LSB *larger* than the stale LSBs is the common case (increments
        since last persist).
        """
        if len(lsb_values) != _COUNTERS_PER_BLOCK:
            raise ConfigError("need one LSB value per counter")
        for slot, lsb in enumerate(lsb_values):
            msb_part = self.counters[slot] & ~mask(lsb_bits)
            self.counters[slot] = (msb_part | (lsb & mask(lsb_bits))) & _COUNTER_MAX
        self.mac = mac & mask(_MAC_BITS)

    # ------------------------------------------------------------------
    # 64B wire format
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: counter *i* at bit 56i, MAC at bit 448."""
        c0, c1, c2, c3, c4, c5, c6, c7 = self.counters
        try:
            return b"".join((
                c0.to_bytes(7, "little"),
                c1.to_bytes(7, "little"),
                c2.to_bytes(7, "little"),
                c3.to_bytes(7, "little"),
                c4.to_bytes(7, "little"),
                c5.to_bytes(7, "little"),
                c6.to_bytes(7, "little"),
                c7.to_bytes(7, "little"),
                self.mac.to_bytes(7, "little"),
                _PAD,
            ))
        except OverflowError:
            raise ConfigError(
                f"SGX block fields out of 56-bit range: {self.counters}, "
                f"mac {self.mac}"
            ) from None

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SgxCounterBlock":
        """Inverse of :meth:`to_bytes`."""
        if len(raw) != BLOCK_SIZE:
            raise ConfigError(f"SGX block must be {BLOCK_SIZE} bytes")
        word = int.from_bytes(raw, "little")
        # Masked fields are in range by construction, so the checked
        # constructor's range loop is skipped.
        block = cls.__new__(cls)
        block.counters = [
            word & _COUNTER_MAX,
            (word >> 56) & _COUNTER_MAX,
            (word >> 112) & _COUNTER_MAX,
            (word >> 168) & _COUNTER_MAX,
            (word >> 224) & _COUNTER_MAX,
            (word >> 280) & _COUNTER_MAX,
            (word >> 336) & _COUNTER_MAX,
            (word >> 392) & _COUNTER_MAX,
        ]
        block.mac = (word >> _MAC_OFFSET) & _MAC_MAX
        return block

    def copy(self) -> "SgxCounterBlock":
        """Deep copy (fields are in range, so unchecked like
        :meth:`from_bytes`)."""
        block = SgxCounterBlock.__new__(SgxCounterBlock)
        block.counters = self.counters[:]
        block.mac = self.mac
        return block

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SgxCounterBlock)
            and other.counters == self.counters
            and other.mac == self.mac
        )

    def __hash__(self) -> int:  # pragma: no cover - blocks are dict values
        return hash((tuple(self.counters), self.mac))

    def __repr__(self) -> str:
        return (
            f"SgxCounterBlock(counters={self.counters}, mac={self.mac:#016x})"
        )
