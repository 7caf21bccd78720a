"""Anubis shadow-table structures (§4.1, Fig. 6, Fig. 9).

* :class:`ShadowAddressTable` — the AGIT trackers (SCT and SMT): one
  64-bit address per cache slot, eight addresses packed per 64B NVM
  block.  The controller keeps an on-chip mirror and rewrites the one
  affected 64B group on each tracked event.
* :class:`StEntry` — an ASIT Shadow Table entry (Fig. 9b): the tracked
  node's address (+ a valid bit in the alignment bits), its 56-bit MAC,
  and the 49-bit LSBs of its eight counters.  64 + 56 + 8×49 = 512 bits,
  exactly one 64B block per cache slot.
* :class:`ShadowRegionTree` — the small Merkle tree that protects the
  ASIT Shadow Table; only its root (SHADOW_TREE_ROOT) is persistent, in
  an on-chip NVM register (§4.3.1).  The modelled hardware updates it
  eagerly, so the register is current after every ST write; the
  simulator evaluates the pending path hashes when the root is read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import BLOCK_SIZE, TREE_ARITY
from repro.crypto.hashes import hash64_keyed
from repro.errors import ConfigError

_ADDRESSES_PER_BLOCK = 8
_LSB_BITS = 49
_MAC_BITS = 56
_COUNTERS = 8

# StEntry field masks and bit offsets (Fig. 9b): address|valid in bits
# 0-63, the MAC in 64-119, then the eight LSB fields.
_ADDRESS_MASK = (1 << 64) - 2  # the low (alignment) bit is the valid bit
_MAC_MASK = (1 << _MAC_BITS) - 1
_LSB_MASK = (1 << _LSB_BITS) - 1
_LSB_SHIFTS = tuple(64 + _MAC_BITS + i * _LSB_BITS for i in range(_COUNTERS))

_ZERO_BLOCK = bytes(BLOCK_SIZE)
_NODE = struct.Struct(f"<{TREE_ARITY}Q")


class ShadowAddressTable:
    """On-chip mirror of an AGIT shadow region (SCT or SMT).

    ``slots[i]`` is the address currently tracked for cache slot *i*
    (0 = nothing tracked).  :meth:`record` updates a slot and returns
    the offset and bytes of the one 64B group block that must be
    rewritten in NVM.
    """

    addresses_per_block = _ADDRESSES_PER_BLOCK

    def __init__(self, num_slots: int) -> None:
        if num_slots <= 0:
            raise ConfigError("shadow table needs at least one slot")
        self.num_slots = num_slots
        self.slots: List[int] = [0] * num_slots

    def record(self, slot: int, address: int) -> "tuple[int, bytes]":
        """Track ``address`` in ``slot``; returns (group_index, block)."""
        if not 0 <= slot < self.num_slots:
            raise ConfigError(f"slot {slot} outside shadow table")
        self.slots[slot] = address
        group = slot // _ADDRESSES_PER_BLOCK
        return group, self.group_bytes(group)

    def group_bytes(self, group: int) -> bytes:
        """Serialize one 8-address group to its 64B NVM block (slots
        past the table's end read 0)."""
        base = group * _ADDRESSES_PER_BLOCK
        addresses = self.slots[base : base + _ADDRESSES_PER_BLOCK]
        if len(addresses) < _ADDRESSES_PER_BLOCK:
            addresses += [0] * (_ADDRESSES_PER_BLOCK - len(addresses))
        return _NODE.pack(*addresses)

    @staticmethod
    def parse_block(raw: bytes) -> List[int]:
        """Unpack a 64B group block into its eight tracked addresses."""
        if len(raw) != BLOCK_SIZE:
            raise ConfigError("shadow group block must be 64 bytes")
        return [
            int.from_bytes(raw[offset : offset + 8], "little")
            for offset in range(0, BLOCK_SIZE, 8)
        ]


@dataclass(frozen=True)
class StEntry:
    """One ASIT Shadow Table entry (Fig. 9b)."""

    valid: bool
    address: int
    mac: int
    lsbs: "tuple[int, ...]"

    lsb_bits = _LSB_BITS

    def to_bytes(self) -> bytes:
        """Pack to 64 bytes: addr|valid, MAC, eight 49-bit LSB fields."""
        if len(self.lsbs) != _COUNTERS:
            raise ConfigError("ST entry needs eight LSB fields")
        word = (
            (self.address & _ADDRESS_MASK)
            | (1 if self.valid else 0)
            | (self.mac & _MAC_MASK) << 64
        )
        for lsb, shift in zip(self.lsbs, _LSB_SHIFTS):
            word |= (lsb & _LSB_MASK) << shift
        return word.to_bytes(BLOCK_SIZE, "little")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "StEntry":
        """Inverse of :meth:`to_bytes`."""
        if len(raw) != BLOCK_SIZE:
            raise ConfigError("ST entry must be 64 bytes")
        word = int.from_bytes(raw, "little")
        return cls(
            valid=bool(word & 1),
            address=word & _ADDRESS_MASK,
            mac=(word >> 64) & _MAC_MASK,
            lsbs=tuple((word >> shift) & _LSB_MASK for shift in _LSB_SHIFTS),
        )

    @classmethod
    def invalid(cls) -> "StEntry":
        """The empty (untracked) entry; it packs to 64 zero bytes.

        Entries are frozen, so every caller shares one instance.
        """
        return _INVALID_ENTRY


_INVALID_ENTRY = StEntry(valid=False, address=0, mac=0, lsbs=(0,) * _COUNTERS)


class ShadowRegionTree:
    """8-ary hash tree over the ASIT Shadow Table.

    The leaves are the hashes of the ST's 64B entry blocks.  In the
    modelled hardware every ST update recomputes one leaf-to-root path
    (a handful of hashes for a 256KB-class table — "3-4 levels",
    §4.3.1), and :meth:`update` reports that many hashes.  The
    intermediate nodes are volatile; only :attr:`root` is persistent
    on-chip, which is all recovery needs: it recomputes the root from
    the NVM copy of the ST and compares.

    Only a :attr:`root` read can observe the tree, so the simulator
    records updated blocks and hashes them when the root is read: each
    pending leaf once, then each distinct dirty ancestor once per level.
    The value read is always the eager tree's root.
    """

    def __init__(
        self,
        key: bytes,
        num_leaves: int,
        blocks: Optional[Mapping[int, bytes]] = None,
    ) -> None:
        """A tree over ``blocks`` (``{leaf: block}``); every other leaf
        is a zero block, as a never-written or invalidated entry is.

        Recovery builds its live tree from the written blocks of the NVM
        Shadow Table and keeps updating it while it resets entries, so
        SHADOW_TREE_ROOT can track the reset transactionally.
        """
        if num_leaves <= 0:
            raise ConfigError("shadow region tree needs leaves")
        self.key = key
        self._hash = hash64_keyed(key)
        self.num_leaves = num_leaves
        # Every absent leaf hashes the same 64 zero bytes: hash them once.
        leaves = [self._leaf_hash(_ZERO_BLOCK)] * num_leaves
        for leaf, block in (blocks or {}).items():
            if not 0 <= leaf < num_leaves:
                raise ConfigError(f"leaf {leaf} outside shadow tree")
            leaves[leaf] = self._leaf_hash(block)
        self._build_levels(leaves)

    def _leaf_hash(self, block: bytes) -> int:
        return self._hash.value(block)

    def _group_hash(self, children: Sequence[int]) -> int:
        """Hash of one node over its child hashes (a ragged last group
        is zero-padded)."""
        if len(children) < TREE_ARITY:
            children = list(children) + [0] * (TREE_ARITY - len(children))
        return self._hash.value(_NODE.pack(*children))

    def _node_hash(self, level: int, index: int) -> int:
        start = index * TREE_ARITY
        below = self.levels[level - 1]
        return self._group_hash(below[start : start + TREE_ARITY])

    def _build_levels(self, leaves: List[int]) -> None:
        """Build every level above ``leaves``.

        A node's hash depends on its child hashes alone, so each
        distinct group of children is hashed once per level: every
        untouched stretch of the table shares one digest per level.
        """
        self.levels: List[List[int]] = [leaves]
        #: ST blocks written since the last root read, by leaf index.
        self._pending: Dict[int, bytes] = {}
        below = leaves
        while len(below) > 1:
            digests: Dict[Tuple[int, ...], int] = {}
            level = []
            for start in range(0, len(below), TREE_ARITY):
                group = tuple(below[start : start + TREE_ARITY])
                digest = digests.get(group)
                if digest is None:
                    digest = digests[group] = self._group_hash(group)
                level.append(digest)
            self.levels.append(level)
            below = level

    def update(self, leaf_index: int, block: bytes) -> int:
        """Fold a new ST entry block into the tree; returns the number
        of hash computations the hardware spends (for latency
        accounting).  The last block written to a leaf wins."""
        if not 0 <= leaf_index < self.num_leaves:
            raise ConfigError(f"leaf {leaf_index} outside shadow tree")
        self._pending[leaf_index] = block
        return len(self.levels)

    def _flush(self) -> None:
        """Hash the pending leaves, then their distinct ancestors
        bottom-up, each once."""
        leaves = self.levels[0]
        dirty = set()
        for index, block in self._pending.items():
            leaves[index] = self._leaf_hash(block)
            dirty.add(index // TREE_ARITY)
        self._pending.clear()
        for level in range(1, len(self.levels)):
            nodes = self.levels[level]
            for index in dirty:
                nodes[index] = self._node_hash(level, index)
            dirty = {index // TREE_ARITY for index in dirty}

    @property
    def root(self) -> int:
        """SHADOW_TREE_ROOT — the only persistent piece of this tree."""
        if self._pending:
            self._flush()
        return self.levels[-1][0]
