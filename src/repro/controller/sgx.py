"""Secure memory controller for SGX-style parallelizable trees.

Every tree node (leaf version blocks included) is an
:class:`~repro.counters.sgx.SgxCounterBlock`; one combined metadata cache
holds all levels (§4.3).  The update policy is lazy, following Vault and
Synergy (§2.3.2): an increment is absorbed by the cached node, and only
when a *dirty* node is evicted is its parent's nonce bumped — the fresh
nonce versions the write-back so stale memory copies of the node can
never be replayed.  Cached nodes carry their fill-time parent nonce
(``CachedNode.parent_nonce``); that value stays correct for the whole
residency because the parent nonce for a node only changes when that
node itself is evicted.

Tree positions are integer arithmetic on ``MemoryLayout.level_bases``:
node ``index`` of stored level ``level`` sits at ``level_bases[level] +
index * 64``, its parent is node ``index // 8`` one level up, and the
nonce that versions it is the parent's ``counters[index % 8]`` (the
on-chip root block's, for the top stored level).  Cached nodes also
carry their ``(level, index)``, so no walk maps an address back to a
position.

Schemes:

* **WRITE_BACK** — lazy write-back; unrecoverable after a crash.
* **STRICT_PERSISTENCE** — eager: every data write increments the nonce
  chain to the root, reseals every level, and persists all of it.
* **OSIRIS** — lazy plus stop-loss persists of version blocks; modeled
  for Fig. 11 even though (as the paper argues) counter recovery alone
  cannot rebuild this tree.

ASIT (:mod:`repro.core.asit`) subclasses this and overrides the
``_touch_node`` / ``_on_node_evicted`` hooks to maintain the Shadow
Table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.cache.sa_cache import Eviction, SetAssociativeCache
from repro.config import (
    BLOCK_SIZE,
    TREE_ARITY,
    CacheConfig,
    SchemeKind,
    SystemConfig,
)
from repro.controller.base import SecureMemoryController
from repro.counters.sgx import SgxCounterBlock
from repro.crypto.keys import ProcessorKeys
from repro.errors import IntegrityError
from repro.integrity.sgx_tree import SgxTreeEngine
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice


@dataclass
class CachedNode:
    """Metadata-cache payload: the live node plus its tree position."""

    node: SgxCounterBlock
    #: The parent nonce this node was verified against at fill time.
    #: Constant for the node's residency (it only changes at eviction).
    parent_nonce: int
    level: int
    index: int


class SgxController(SecureMemoryController):
    """Counter-mode encryption + SGX-style integrity tree."""

    def __init__(
        self,
        config: SystemConfig,
        layout: MemoryLayout,
        keys: Optional[ProcessorKeys] = None,
        nvm: Optional[NvmDevice] = None,
    ) -> None:
        super().__init__(config, layout, keys, nvm)
        self.engine = SgxTreeEngine(self.keys, layout)
        self._adopt_default_provider(self.engine.default_provider)
        # SGX systems use one combined metadata cache sized as the two
        # Table-1 caches together (counter 256KB + tree 256KB -> 512KB).
        combined = CacheConfig(
            size_bytes=config.metadata_cache_bytes,
            ways=config.merkle_cache.ways,
        )
        self.metadata_cache = SetAssociativeCache(combined, "metadata_cache")
        self.scheme = config.scheme
        self.stop_loss = config.encryption.stop_loss_limit
        self._evictions: Deque[Eviction] = deque()
        self._draining = False

    # ------------------------------------------------------------------
    # Anubis hook points (ASIT overrides)
    # ------------------------------------------------------------------

    def _touch_node(self, address: int, record: CachedNode) -> None:
        """Called on every modification of a cached node.

        The base policy just sets the dirty bit; the cached MAC is left
        stale and recomputed at eviction (the on-chip copy needs no MAC).
        ASIT additionally reseals the node and writes its Shadow Table
        entry (§4.3.1).
        """
        self.metadata_cache.mark_dirty(address)

    def _on_node_evicted(self, slot: int, address: int, dirty: bool) -> None:
        """Called after a victim leaves the cache (ASIT: invalidate ST)."""

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def read(self, address: int) -> bytes:
        """Decrypt and integrity-check one data line."""
        self.layout.check_data_address(address)
        self.data_reads += 1
        index, slot = divmod(
            address // BLOCK_SIZE, self.layout.lines_per_counter_block
        )
        record = self._get_node(
            0, index, self.layout.level_bases[0] + index * BLOCK_SIZE
        )
        counter = record.node.counters[slot]
        cipher, sideband, fresh = self.read_data_line(address)
        if self._evictions:
            self._drain_evictions()
        if not fresh:
            # Architectural zeros are only legal while the line's version
            # counter is zero; a nonzero counter over never-written cells
            # means the write that bumped it was lost.  Real hardware
            # would decrypt the default cells and fail ECC — fail closed.
            if counter:
                raise IntegrityError(
                    f"counter names a written line at {address:#x} but "
                    "NVM holds no data for it"
                )
            return bytes(len(cipher))
        self.channel.hash_latency()
        return self.open_data(address, cipher, sideband, counter, 0)

    def write(self, address: int, data: bytes) -> None:
        """Encrypt, persist, and update the nonce tree for one line."""
        self.layout.check_data_address(address)
        self.data_writes += 1
        index, slot = divmod(
            address // BLOCK_SIZE, self.layout.lines_per_counter_block
        )
        leaf_address = self.layout.level_bases[0] + index * BLOCK_SIZE
        record = self._get_node(0, index, leaf_address)
        # The fill's drain can bump a dirty victim's parent, and that
        # parent's fetch can evict the leaf just filled: fetch it again.
        while self.metadata_cache.peek(leaf_address) is not record:
            record = self._get_node(0, index, leaf_address)

        self.pregs.begin()
        if self.scheme == SchemeKind.STRICT_PERSISTENCE:
            self._strict_update(leaf_address, record, slot)
        else:
            self._lazy_update(leaf_address, record, slot)

        counter = record.node.counters[slot]
        cipher, sideband = self.seal_data(address, data, counter, 0)
        self.pregs.stage(address, cipher, sideband)
        pushed = self.pregs.commit()
        self.persist_writes += pushed
        if self._evictions:
            self._drain_evictions()

    def _lazy_update(self, leaf_address: int, record: CachedNode, slot: int) -> None:
        """Absorb the increment in the cached leaf node (lazy policy)."""
        record.node.increment(slot)
        self._after_increment(leaf_address, record, slot)
        self._touch_node(leaf_address, record)
        if self.scheme == SchemeKind.OSIRIS:
            # Stop-loss: bound how far the memory copy trails the truth.
            if record.node.counter(slot) % self.stop_loss == 0:
                self.engine.seal(record.node, record.parent_nonce)
                self.pregs.stage(leaf_address, record.node.to_bytes())

    def _after_increment(
        self, address: int, record: CachedNode, slot: int
    ) -> None:
        """Post-increment hook (ASIT persists the node when a counter's
        49-bit LSB field wraps, so memory MSBs carry the wrap)."""

    def _strict_update(self, leaf_address: int, record: CachedNode, slot: int) -> None:
        """Eager policy: bump nonces on every level, reseal, persist all."""
        record.node.increment(slot)
        chain = [(leaf_address, record)]
        bases = self.layout.level_bases
        top_level = self.layout.root_level - 1
        level, index = record.level, record.index
        child = record
        while level < top_level:
            child_slot = index % TREE_ARITY
            level += 1
            index //= TREE_ARITY
            parent_address = bases[level] + index * BLOCK_SIZE
            parent = self._get_node(level, index, parent_address)
            parent.node.increment(child_slot)
            child.parent_nonce = parent.node.counters[child_slot]
            chain.append((parent_address, parent))
            child = parent
        # top stored level: versioned by the on-chip root block
        child.parent_nonce = self.engine.bump_root_nonce_for(index)
        for node_address, node_record in chain:
            self.engine.seal(node_record.node, node_record.parent_nonce)
            self.pregs.stage(node_address, node_record.node.to_bytes())
            self.metadata_cache.clean(node_address)

    # ------------------------------------------------------------------
    # fetch + verification
    # ------------------------------------------------------------------

    def _get_node(self, level: int, index: int, address: int) -> CachedNode:
        """Return the cached node, fetching and MAC-verifying on miss.

        The caller names the node's tree position: ``address`` is node
        ``index`` of stored ``level``, ``level_bases[level] + index *
        BLOCK_SIZE``.  Verification needs the parent nonce, slot ``index
        % 8`` of node ``index // 8`` one level up; if the parent is not
        cached it is fetched (and verified) recursively, so the walk
        stops at the first cached ancestor or the on-chip root, exactly
        the §3 procedure.

        This is the reference walk.  The batch engine's window
        (:func:`repro.controller.batch._sgx_fill_planner`) serves a leaf
        miss inline when it can reproduce every check and effect of
        this walk (clean victims only); every other miss calls it.
        """
        record = self.metadata_cache.access(address)
        if record is not None:
            return record
        if self._evictions:
            self._flush_pending_eviction(address)

        # Resolve the parent nonce BEFORE reading this node's bytes: the
        # recursive parent walk can trigger evictions whose handling
        # fetches and even modifies this very node (as some victim's
        # parent); reading afterwards — and re-checking residency —
        # guarantees we verify and cache the freshest copy instead of
        # clobbering a nonce increment with a stale one.
        if level == self.layout.root_level - 1:
            parent_nonce = self.engine.root_nonce_for(index)
        else:
            parent_index = index // TREE_ARITY
            parent_address = (
                self.layout.level_bases[level + 1] + parent_index * BLOCK_SIZE
            )
            parent = self.metadata_cache.peek(parent_address)
            if parent is None:
                parent = self._get_node(level + 1, parent_index, parent_address)
            parent_nonce = parent.node.counters[index % TREE_ARITY]

        # The miss is counted above; this re-check only refreshes LRU.
        record = self.metadata_cache.touch(address)
        if record is not None:
            return record
        raw = self.read_block(address)
        self.meta_fetches += 1
        self.integrity_checks += 1
        self.channel.hash_latency()
        if raw is not None or parent_nonce:
            # A never-written node (``raw`` None) holds the default
            # node's bytes, whose MAC is valid only under nonce 0: under
            # a non-zero nonce (a lost write-back) it fails here.
            node = (
                SgxCounterBlock.from_bytes(raw)
                if raw is not None
                else self.engine.default_node()
            )
            if not self.engine.verify(node, parent_nonce):
                raise IntegrityError(
                    f"SGX node MAC mismatch at {address:#x} (level {level})"
                )
        else:
            # Never written and versioned by nonce 0: the default node,
            # valid by construction, so the MAC check is skipped.
            node = self.engine.verified_default()
        record = CachedNode(node, parent_nonce, level, index)
        _slot, eviction = self.metadata_cache.fill(address, record)
        if eviction is not None:
            self._evictions.append(eviction)
        if self._evictions:
            self._drain_evictions()
        return record

    # ------------------------------------------------------------------
    # evictions (the lazy propagation point)
    # ------------------------------------------------------------------

    def _process_eviction(self, eviction: Eviction) -> None:
        """Write back one victim, bumping its parent nonce (lazy)."""
        record: CachedNode = eviction.payload
        if not eviction.dirty:
            self._on_node_evicted(eviction.slot, eviction.address, dirty=False)
            return
        new_nonce = self._bump_parent_nonce(record)
        self.engine.seal(record.node, new_nonce)
        self.meta_writebacks += 1
        self.wpq.insert(eviction.address, record.node.to_bytes())
        self._on_node_evicted(eviction.slot, eviction.address, dirty=True)

    def _flush_pending_eviction(self, address: int) -> None:
        """Complete a queued eviction of ``address`` immediately.

        A refetch of a node whose dirty eviction is still queued would
        otherwise read the *stale* memory copy and fork the node into
        two divergent versions (the classic lost update) — the pending
        payload must reach memory before anyone re-reads the address.
        """
        for position, eviction in enumerate(self._evictions):
            if eviction.address == address:
                del self._evictions[position]
                self._process_eviction(eviction)
                return

    def _drain_evictions(self) -> None:
        """Write back queued victims (re-entrancy safe)."""
        if self._draining:
            return
        self._draining = True
        try:
            while self._evictions:
                self._process_eviction(self._evictions.popleft())
        finally:
            self._draining = False

    def _bump_parent_nonce(self, record: CachedNode) -> int:
        """Increment the parent nonce that versions an evicted node."""
        level, index = record.level, record.index
        if level == self.layout.root_level - 1:
            return self.engine.bump_root_nonce_for(index)
        parent_index = index // TREE_ARITY
        parent_address = (
            self.layout.level_bases[level + 1] + parent_index * BLOCK_SIZE
        )
        parent = self.metadata_cache.peek(parent_address)
        if parent is None:
            parent = self._get_node(level + 1, parent_index, parent_address)
        child_slot = index % TREE_ARITY
        parent.node.increment(child_slot)
        self._after_increment(parent_address, parent, child_slot)
        self._touch_node(parent_address, parent)
        return parent.node.counters[child_slot]

    # ------------------------------------------------------------------
    # crash / shutdown
    # ------------------------------------------------------------------

    def drop_volatile(self) -> None:
        """Lose the metadata cache (power failure)."""
        self.metadata_cache.drop_all_volatile()
        self._evictions.clear()
        self.pregs.abort()

    def writeback_all(self) -> None:
        """Orderly shutdown: evict every dirty node through the lazy
        propagation path (parents bump, reseal, write back)."""
        # Lowest levels first so parent bumps dirty nodes we have not
        # written back yet rather than ones we already cleaned.
        for _round in range(self.layout.root_level + 1):
            dirty = sorted(
                (
                    (record.level, address, record, slot)
                    for slot, address, record, is_dirty in self.metadata_cache.resident()
                    if is_dirty
                ),
                key=lambda item: item[0],
            )
            if not dirty:
                break
            for _level, address, record, slot in dirty:
                if not self.metadata_cache.is_dirty(address):
                    continue
                new_nonce = self._bump_parent_nonce(record)
                record.parent_nonce = new_nonce
                self.engine.seal(record.node, new_nonce)
                self.wpq.insert(address, record.node.to_bytes())
                self.metadata_cache.clean(address)
                self._on_node_evicted(slot, address, dirty=True)
        self.wpq.drain_all()
