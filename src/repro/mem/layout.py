"""Physical address-space layout for a secure NVM system.

The layout places, above the data region, every metadata region the paper
needs: the counter (or SGX version-block) region, one region per stored
integrity-tree level, and the Anubis shadow regions (SCT/SMT for AGIT,
ST for ASIT — §4.1, Fig. 9).

All addresses are byte addresses aligned to the 64B block size.  The
tree is 8-ary; level 0 is the leaf metadata level (counter blocks for
Bonsai, version blocks for SGX) and the level whose node count reaches 1
is the *root level*, held on-chip and not stored in memory.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

from repro.config import BLOCK_SIZE, TREE_ARITY, MemoryConfig, TreeKind
from repro.errors import AlignmentError, LayoutError


@dataclass(frozen=True)
class Region:
    """A contiguous, block-aligned slice of the physical address space."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside the region."""
        return self.base <= address < self.base + self.size

    def block_index(self, address: int) -> int:
        """Index of the 64B block at ``address`` within this region."""
        if not self.contains(address):
            raise LayoutError(
                f"address {address:#x} outside region {self.name} "
                f"[{self.base:#x}, {self.end:#x})"
            )
        return (address - self.base) // BLOCK_SIZE

    def block_address(self, index: int) -> int:
        """Byte address of the ``index``-th 64B block of this region."""
        address = self.base + index * BLOCK_SIZE
        if address >= self.end:
            raise LayoutError(
                f"block {index} outside region {self.name} "
                f"({self.size // BLOCK_SIZE} blocks)"
            )
        return address

    @property
    def num_blocks(self) -> int:
        """Number of 64B blocks in the region."""
        return self.size // BLOCK_SIZE


def _tree_level_counts(leaf_count: int, arity: int = TREE_ARITY) -> List[int]:
    """Node counts per tree level, leaves first, ending at a 1-node root."""
    counts = [leaf_count]
    while counts[-1] > 1:
        counts.append((counts[-1] + arity - 1) // arity)
    return counts


class MemoryLayout:
    """Computes every region and address mapping for one system.

    Parameters
    ----------
    memory:
        Geometry of the data region.
    tree:
        :class:`~repro.config.TreeKind` — decides the leaf-metadata
        granularity: Bonsai counter blocks cover one 4KB page each
        (split-counter, 64 lines per block); SGX version blocks cover
        eight 64B lines each (8 × 56-bit counters per block).
    metadata_cache_blocks:
        Total number of slots across the metadata caches; sizes the
        Anubis shadow regions.
    """

    def __init__(
        self,
        memory: MemoryConfig,
        tree: TreeKind,
        metadata_cache_blocks: int,
    ) -> None:
        self.memory = memory
        self.tree = tree
        self.arity = TREE_ARITY

        if tree == TreeKind.BONSAI:
            # one split-counter block per page
            leaf_count = memory.num_pages
            self.lines_per_counter_block = memory.blocks_per_page
        else:
            # one SGX version block per 8 data lines
            leaf_count = (memory.num_blocks + 7) // 8
            self.lines_per_counter_block = 8

        self.level_counts = _tree_level_counts(leaf_count)
        #: Index of the root level (single node, kept on-chip).
        self.root_level = len(self.level_counts) - 1

        cursor = 0
        self.data = Region("data", cursor, memory.capacity_bytes)
        cursor = self.data.end

        #: Stored tree levels: level 0 (counters/version blocks) through
        #: root_level - 1.  The root-level node lives on-chip.
        self.level_regions: List[Region] = []
        for level, count in enumerate(self.level_counts[:-1]):
            region = Region(f"tree_l{level}", cursor, count * BLOCK_SIZE)
            self.level_regions.append(region)
            cursor = region.end
        #: Base address of every stored level, plus the end of the last
        #: as a sentinel: node ``index`` of ``level`` sits at
        #: ``level_bases[level] + index * BLOCK_SIZE``.  Stored levels are
        #: contiguous and ascending, so a bisect over this table names
        #: the level of any address (see level_of).  Every tree walk
        #: works from this table.
        self.level_bases: List[int] = [
            region.base for region in self.level_regions
        ]
        self.level_bases.append(cursor)

        shadow_bytes = metadata_cache_blocks * BLOCK_SIZE
        self.sct = Region("sct", cursor, shadow_bytes)
        cursor = self.sct.end
        self.smt = Region("smt", cursor, shadow_bytes)
        cursor = self.smt.end
        # ASIT's combined Shadow Table: one 64B entry per cache slot.
        self.st = Region("st", cursor, 2 * shadow_bytes)
        cursor = self.st.end

        self.total_size = cursor

    # ------------------------------------------------------------------
    # data <-> counter mapping
    # ------------------------------------------------------------------

    @property
    def counter_region(self) -> Region:
        """The leaf metadata region (tree level 0)."""
        return self.level_regions[0]

    def check_data_address(self, address: int) -> None:
        """Validate a data line address (range + 64B alignment)."""
        if address % BLOCK_SIZE:
            raise AlignmentError(f"address {address:#x} not 64B-aligned")
        if not self.data.contains(address):
            raise LayoutError(
                f"data address {address:#x} outside "
                f"[0, {self.data.end:#x})"
            )

    def counter_block_for(self, data_address: int) -> int:
        """Address of the counter/version block covering a data line."""
        self.check_data_address(data_address)
        # Every valid data line maps inside the counter region.
        index = data_address // BLOCK_SIZE // self.lines_per_counter_block
        return self.level_regions[0].base + index * BLOCK_SIZE

    def counter_slot_for(self, data_address: int) -> int:
        """Which counter within its block covers this data line."""
        self.check_data_address(data_address)
        line = data_address // BLOCK_SIZE
        return line % self.lines_per_counter_block

    # ------------------------------------------------------------------
    # tree navigation
    # ------------------------------------------------------------------

    def node_address(self, level: int, index: int) -> int:
        """Byte address of tree node ``index`` at stored ``level``."""
        if not 0 <= level < self.root_level:
            raise LayoutError(
                f"level {level} is not a stored tree level "
                f"(root level {self.root_level} lives on-chip)"
            )
        address = self.level_bases[level] + index * BLOCK_SIZE
        if address < self.level_bases[level + 1]:
            return address
        return self.level_regions[level].block_address(index)  # raises

    def level_of(self, address: int) -> int:
        """Stored tree level holding ``address``, or -1 outside the tree."""
        level = bisect_right(self.level_bases, address) - 1
        return level if level < self.root_level else -1

    def locate_node(self, address: int) -> Tuple[int, int]:
        """Inverse of :meth:`node_address`: ``(level, index)`` of a node."""
        level = self.level_of(address)
        if level < 0:
            raise LayoutError(f"address {address:#x} is not a stored tree node")
        return level, self.level_regions[level].block_index(address)

    def parent_of(self, level: int, index: int) -> Tuple[int, int]:
        """``(level, index)`` of a node's parent (may be the root level)."""
        if level >= self.root_level:
            raise LayoutError("the root has no parent")
        return level + 1, index // self.arity

    def child_slot(self, index: int) -> int:
        """Which of its parent's 8 child slots node ``index`` fills."""
        return index % self.arity

    def children_of(self, level: int, index: int) -> List[Tuple[int, int]]:
        """Existing children ``(level, index)`` pairs of a node.

        The last node of a level may have fewer than 8 children when the
        level count is not a multiple of the arity.
        """
        if level == 0:
            raise LayoutError("leaf metadata blocks have no children")
        child_level = level - 1
        first = index * self.arity
        limit = self.level_counts[child_level]
        return [
            (child_level, child)
            for child in range(first, min(first + self.arity, limit))
        ]

    def ancestors_of_counter(self, counter_address: int) -> List[int]:
        """Stored-node addresses on the path from a counter block's parent
        up to (excluding) the on-chip root level, bottom-up."""
        level, index = self.locate_node(counter_address)
        if level != 0:
            raise LayoutError(f"{counter_address:#x} is not a counter block")
        path = []
        while level + 1 < self.root_level:
            level, index = self.parent_of(level, index)
            path.append(self.node_address(level, index))
        return path

    # ------------------------------------------------------------------
    # shadow regions
    # ------------------------------------------------------------------

    def st_entry_address(self, slot: int) -> int:
        """ASIT Shadow Table entry for metadata-cache slot ``slot``.

        Each ST entry is a full 64B block (address + MAC + counter LSBs,
        Fig. 9b), so the mapping is one-to-one.
        """
        return self.st.block_address(slot)

    def describe(self) -> str:
        """Human-readable map of the address space (for docs/examples)."""
        lines = [
            f"{self.data.name:>10}: [{self.data.base:#014x}, {self.data.end:#014x})"
        ]
        for region in self.level_regions:
            lines.append(
                f"{region.name:>10}: [{region.base:#014x}, {region.end:#014x})"
            )
        for region in (self.sct, self.smt, self.st):
            lines.append(
                f"{region.name:>10}: [{region.base:#014x}, {region.end:#014x})"
            )
        lines.append(f"root level: {self.root_level} (on-chip)")
        return "\n".join(lines)
