"""Tree-path navigation shared by both integrity-tree engines.

A :class:`TreePath` names one step on the walk from a leaf metadata block
to the on-chip root: the node's (level, index), its memory address when
the level is stored, and which child slot the *previous* step occupies in
this node.  The tests iterate these paths; the Bonsai controller's
per-access walks and the batch engine's ``_tree_path`` do the same
arithmetic on :attr:`~repro.mem.layout.MemoryLayout.level_bases`
inline.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.config import BLOCK_SIZE
from repro.mem.layout import MemoryLayout


class TreePath(NamedTuple):
    """One node on a leaf-to-root walk."""

    level: int
    index: int
    #: Memory address of the node; None for the on-chip root level.
    address: Optional[int]
    #: Which of this node's 8 child slots the previous step fills.
    #: For the leaf step itself this is the leaf's slot in *its* parent.
    child_slot: int


def path_to_root(layout: MemoryLayout, leaf_address: int) -> List[TreePath]:
    """Walk from a stored metadata block up to the on-chip root.

    The first element is the block itself; the last element is the
    root level (``address is None``).  ``child_slot`` of element *i* (for
    i >= 1) names where element *i-1* hangs in element *i*.
    """
    level, index = layout.locate_node(leaf_address)
    bases = layout.level_bases
    arity = layout.arity
    root_level = layout.root_level
    steps: List[TreePath] = [
        TreePath(level, index, leaf_address, index % arity)
    ]
    while level < root_level:
        child_slot = index % arity
        level += 1
        index //= arity
        address = (
            bases[level] + index * BLOCK_SIZE if level < root_level else None
        )
        steps.append(TreePath(level, index, address, child_slot))
    return steps
