"""General (Bonsai-style) non-parallelizable Merkle tree (§2.3.1, Fig. 2).

Each 64B node holds eight 64-bit keyed hashes, one per 64B child; the
leaves (level 0) are split-counter blocks.  The root-level node (one 64B
node of hashes over the top stored level) is held on-chip; its own hash
is the *root value* compared after recovery.

Hashes are position-free (a zero child hashes identically anywhere),
which lets an untouched terabyte-scale tree be represented by one
*default node* per level instead of materializing 10^8 nodes — the same
lazy-zero trick hardware gets from zero-initialized memory.  Spatial
splicing of data is still prevented because data-line encryption IVs and
data MACs bind the line address.
"""

from __future__ import annotations

import struct
import weakref
from typing import List, Optional

from repro.config import BLOCK_SIZE, TREE_ARITY
from repro.crypto.hashes import hash64_keyed
from repro.crypto.keys import ProcessorKeys
from repro.errors import ConfigError
from repro.mem.layout import MemoryLayout

_NODE_STRUCT = struct.Struct("<8Q")
_ZERO_BLOCK = bytes(BLOCK_SIZE)


class BonsaiNode:
    """Mutable tree node: eight 64-bit child hashes."""

    __slots__ = ("hashes",)

    def __init__(self, hashes: "List[int] | None" = None) -> None:
        if hashes is None:
            hashes = [0] * TREE_ARITY
        if len(hashes) != TREE_ARITY:
            raise ConfigError(f"Bonsai node needs {TREE_ARITY} hashes")
        self.hashes = list(hashes)

    def child_hash(self, slot: int) -> int:
        """Stored hash of child ``slot``."""
        return self.hashes[slot]

    def set_child_hash(self, slot: int, value: int) -> None:
        """Record a child's new hash."""
        self.hashes[slot] = value & ((1 << 64) - 1)

    def to_bytes(self) -> bytes:
        """Serialize: hash *i* is the little-endian u64 at byte 8i."""
        return _NODE_STRUCT.pack(*self.hashes)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BonsaiNode":
        """Inverse of :meth:`to_bytes`."""
        if len(raw) != BLOCK_SIZE:
            raise ConfigError(f"Bonsai node must be {BLOCK_SIZE} bytes")
        # Eight unpacked u64s are valid hashes; skip the checked
        # constructor (metadata fills parse one node per fetch).
        node = cls.__new__(cls)
        node.hashes = list(_NODE_STRUCT.unpack(raw))
        return node

    def copy(self) -> "BonsaiNode":
        """Deep copy."""
        node = BonsaiNode.__new__(BonsaiNode)
        node.hashes = self.hashes[:]
        return node

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BonsaiNode) and other.hashes == self.hashes

    def __hash__(self) -> int:  # pragma: no cover
        return hash(tuple(self.hashes))

    def __repr__(self) -> str:
        return f"BonsaiNode({[hex(h) for h in self.hashes]})"


class BonsaiTreeEngine:
    """Hash helpers, lazy-zero defaults, and the on-chip root node.

    The engine is deliberately free of cache/timing concerns: the secure
    memory controller owns fetch/evict traffic and calls in here for the
    pure tree math, so the recovery engines can reuse the exact same
    math against raw NVM contents.
    """

    def __init__(self, keys: ProcessorKeys, layout: MemoryLayout) -> None:
        self.keys = keys
        self.layout = layout
        self._hash = hash64_keyed(keys.tree_key)
        # Per-level default node bytes for untouched regions. Level 0's
        # default is the all-zero split-counter block (which serializes
        # to zero bytes, the NVM's natural default); level k's default
        # node holds eight hashes of the level k-1 default.
        self._default_bytes: List[bytes] = [bytes(BLOCK_SIZE)]
        #: ``default_hashes[level]`` is the hash of that stored level's
        #: default block: the digest of any never-written block there.
        self.default_hashes: List[int] = []
        for _level in range(1, layout.root_level + 1):
            child_hash = self.block_hash(self._default_bytes[-1])
            self.default_hashes.append(child_hash)
            node = BonsaiNode([child_hash] * TREE_ARITY)
            self._default_bytes.append(node.to_bytes())
        #: Parsed default node per level, copied by :meth:`default_node`.
        self._default_nodes: List[BonsaiNode] = [
            BonsaiNode.from_bytes(raw) for raw in self._default_bytes
        ]
        #: On-chip root-level node. Survives crashes (NVM register).
        #: Read it through :attr:`root_node`; only the owning
        #: controller's fetch walk and tree updates use it raw.
        self._root = self.default_node(layout.root_level)
        #: Set by a controller that defers eager tree updates: a weak
        #: reference to its settle method (the controller owns the
        #: engine), called before any outside read of the root.
        self.settle_hook: Optional[weakref.WeakMethod] = None

    # ------------------------------------------------------------------
    # pure hash math
    # ------------------------------------------------------------------

    def block_hash(self, block_bytes: bytes) -> int:
        """64-bit keyed hash of a 64B child block (counter block or node)."""
        return self._hash.value(block_bytes)

    @property
    def root_node(self) -> BonsaiNode:
        """The on-chip root node, with deferred updates settled."""
        if self.settle_hook is not None:
            settle = self.settle_hook()
            if settle is not None:
                settle()
        return self._root

    @root_node.setter
    def root_node(self, node: BonsaiNode) -> None:
        self._root = node

    def root_value(self) -> int:
        """The root hash — the single value 'kept inside the processor'."""
        return self.block_hash(self.root_node.to_bytes())

    def default_node_bytes(self, level: int) -> bytes:
        """Serialized default (all-zero subtree) node for ``level``."""
        return self._default_bytes[level]

    def default_node(self, level: int) -> BonsaiNode:
        """A fresh default node for tree ``level`` (at least 1): the
        parse of :meth:`default_node_bytes`, without parsing."""
        return self._default_nodes[level].copy()

    def default_provider(self, address: int) -> bytes:
        """NVM default-content hook: untouched tree blocks read as the
        level's default node, so a fresh system verifies end to end."""
        level = self.layout.level_of(address)
        return self._default_bytes[level] if level >= 0 else _ZERO_BLOCK

    # ------------------------------------------------------------------
    # whole-tree reconstruction (used by Osiris-style full recovery and
    # by tests as the ground-truth oracle)
    # ------------------------------------------------------------------

    def rebuild_level(
        self, level: int, child_reader, parent_index: int
    ) -> BonsaiNode:
        """Recompute one node at ``level`` from its children.

        ``child_reader(address) -> bytes`` supplies child content (raw
        NVM for recovery, or any oracle in tests).  Missing trailing
        children (a short last node) hash the level's default child.
        """
        if level == 0:
            raise ConfigError("level 0 has no children to rebuild from")
        node = BonsaiNode()
        children = self.layout.children_of(level, parent_index)
        for slot in range(TREE_ARITY):
            if slot < len(children):
                child_level, child_index = children[slot]
                child_bytes = child_reader(
                    self.layout.node_address(child_level, child_index)
                )
            else:
                child_bytes = self._default_bytes[level - 1]
            node.set_child_hash(slot, self.block_hash(child_bytes))
        return node

    def rebuild_root(self, child_reader) -> BonsaiNode:
        """Recompute the on-chip root node from the top stored level."""
        root_level = self.layout.root_level
        node = BonsaiNode()
        top_count = self.layout.level_counts[root_level - 1]
        for slot in range(TREE_ARITY):
            if slot < top_count:
                child_bytes = child_reader(
                    self.layout.node_address(root_level - 1, slot)
                )
            else:
                child_bytes = self._default_bytes[root_level - 1]
            node.set_child_hash(slot, self.block_hash(child_bytes))
        return node
