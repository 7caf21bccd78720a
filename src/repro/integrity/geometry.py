"""Tree-path navigation shared by both integrity-tree engines.

A :class:`TreePath` names one step on the walk from a leaf metadata block
to the on-chip root: the node's (level, index), its memory address when
the level is stored, and which child slot the *previous* step occupies in
this node.  Controllers and recovery engines iterate these paths instead
of re-deriving parent arithmetic everywhere.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

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


_PATH_CACHE_LIMIT = 1 << 18


def path_to_root(layout: MemoryLayout, leaf_address: int) -> List[TreePath]:
    """Walk from a level-0 metadata block up to the on-chip root.

    The first element is the leaf block itself; the last element is the
    root level (``address is None``).  ``child_slot`` of element *i* (for
    i >= 1) names where element *i-1* hangs in element *i*.

    Paths are static for a given layout, so they are memoized on the
    layout object (this sits on the per-write hot path).
    """
    cache = getattr(layout, "_path_cache", None)
    if cache is None:
        cache = {}
        layout._path_cache = cache
    cached = cache.get(leaf_address)
    if cached is not None:
        return cached
    level, index = layout.locate_node(leaf_address)
    arity = layout.arity
    root_level = layout.root_level
    steps: List[TreePath] = [
        TreePath(level, index, leaf_address, index % arity)
    ]
    while level < root_level:
        child_slot = index % arity
        level, index = level + 1, index // arity
        address = (
            layout.node_address(level, index) if level < root_level else None
        )
        steps.append(TreePath(level, index, address, child_slot))
    if len(cache) >= _PATH_CACHE_LIMIT:
        cache.clear()
    cache[leaf_address] = steps
    return steps


def ancestors(layout: MemoryLayout, leaf_address: int) -> List[TreePath]:
    """The stored ancestors of a leaf (path minus the leaf and the root)."""
    return [
        step
        for step in path_to_root(layout, leaf_address)[1:]
        if step.address is not None
    ]
