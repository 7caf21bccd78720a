"""Secure memory controller for general (Bonsai) Merkle-tree systems.

Implements the three baseline persistence schemes of the Fig. 10
evaluation on one code path, selected by :class:`~repro.config.SchemeKind`:

* **WRITE_BACK** — plain write-back counter/Merkle caches; fast but
  unrecoverable (dirty metadata is simply lost in a crash).
* **STRICT_PERSISTENCE** — every data write atomically persists its
  counter block and every updated tree node up to the root (§2.7).
* **OSIRIS** — write-back plus the stop-loss rule: a counter block is
  persisted whenever a minor counter crosses a multiple of the stop-loss
  limit, bounding how far the memory copy can trail the truth [7].

The AGIT controllers (:mod:`repro.core.agit`) subclass this and hook the
metadata-cache fill / first-dirty events to write the Anubis shadow
tables; the stop-loss machinery is shared (AGIT runs "write-back and
stop-loss counter mode encryption", §6.1).

Tree-update policy: eager by default (§2.6 — the on-chip root always
reflects the latest counters, which AGIT recovery relies on); the lazy
policy is also implemented for the §2.6 discussion and its tests.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.cache.metadata_cache import MetadataCache
from repro.cache.sa_cache import Eviction
from repro.config import SchemeKind, SystemConfig, UpdatePolicy
from repro.controller.base import SecureMemoryController
from repro.counters.split import SplitCounterBlock
from repro.crypto.keys import ProcessorKeys
from repro.errors import IntegrityError
from repro.integrity.bonsai import BonsaiNode, BonsaiTreeEngine
from repro.integrity.geometry import path_to_root
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice


class BonsaiController(SecureMemoryController):
    """Counter-mode encryption + Bonsai Merkle tree + split counters."""

    def __init__(
        self,
        config: SystemConfig,
        layout: MemoryLayout,
        keys: Optional[ProcessorKeys] = None,
        nvm: Optional[NvmDevice] = None,
    ) -> None:
        super().__init__(config, layout, keys, nvm)
        self.engine = BonsaiTreeEngine(self.keys, layout)
        self._adopt_default_provider(self.engine.default_provider)
        self.counter_cache = MetadataCache(config.counter_cache, "counter_cache")
        self.merkle_cache = MetadataCache(config.merkle_cache, "merkle_cache")
        self.eager = config.update_policy == UpdatePolicy.EAGER
        self.scheme = config.scheme
        self.stop_loss = config.encryption.stop_loss_limit
        self._use_stop_loss = self.scheme in (
            SchemeKind.OSIRIS,
            SchemeKind.AGIT_READ,
            SchemeKind.AGIT_PLUS,
        )
        #: SELECTIVE: counter blocks below this index belong to the
        #: programmer-declared persistent region and are persisted
        #: atomically with their data writes ([8]).
        self._selective_boundary = int(
            config.selective_persistent_fraction
            * layout.counter_region.num_blocks
        )
        self._evictions: Deque[Tuple[str, Eviction]] = deque()
        self._draining = False
        #: Pre-overflow minor snapshots keyed by counter-block address,
        #: captured just before an increment wraps, consumed by the page
        #: re-encryption that follows.
        self._pre_overflow_minors: dict = {}

    # ------------------------------------------------------------------
    # Anubis hook points (no-ops here; AGIT overrides)
    # ------------------------------------------------------------------

    def _on_counter_filled(self, slot: int, address: int) -> None:
        """Called after a counter block is brought into the cache."""

    def _on_merkle_filled(self, slot: int, address: int) -> None:
        """Called after a tree node is brought into the cache."""

    def _on_counter_dirtied(self, slot: int, address: int, first: bool) -> None:
        """Called when a cached counter block is modified."""

    def _on_merkle_dirtied(self, slot: int, address: int, first: bool) -> None:
        """Called when a cached tree node is modified."""

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def read(self, address: int) -> bytes:
        """Decrypt and integrity-check one data line."""
        self.layout.check_data_address(address)
        self.data_reads += 1
        counter_address = self.layout.counter_block_for(address)
        block = self._get_counter_block(counter_address)
        slot = self.layout.counter_slot_for(address)
        major, minor = block.iv_pair(slot)
        cipher, sideband, fresh = self.read_data_line(address)
        self._drain_evictions()
        if not fresh:
            # Architectural zeros are only legal while the line's minor
            # counter is zero.  A nonzero minor over never-written cells
            # means the write that bumped it was lost (e.g. a weak ADR
            # dropped the flush) — real hardware would decrypt the
            # default cells and fail ECC, so fail closed here too.
            if minor:
                raise IntegrityError(
                    f"counter names a written line at {address:#x} but "
                    "NVM holds no data for it"
                )
            return bytes(len(cipher))
        self.channel.hash_latency()  # data MAC check
        return self.open_data(address, cipher, sideband, major, minor)

    def write(self, address: int, data: bytes) -> None:
        """Encrypt, persist, and update metadata for one data line."""
        self.layout.check_data_address(address)
        self.data_writes += 1
        counter_address = self.layout.counter_block_for(address)
        block = self._get_counter_block(counter_address)
        slot = self.layout.counter_slot_for(address)

        minor_max = (1 << block.minor_bits) - 1
        if block.minor(slot) == minor_max:
            self._pre_overflow_minors[counter_address] = list(block.minors)
        overflowed = block.increment(slot)
        if overflowed:
            self._reencrypt_page(counter_address, block, skip_line=address)

        first = self.counter_cache.mark_dirty(counter_address)
        cache_slot = self.counter_cache.slot_of(counter_address)
        self._on_counter_dirtied(cache_slot, counter_address, first)

        if self.eager:
            self._eager_update_ancestors(counter_address, block)

        major, minor = block.iv_pair(slot)
        cipher, sideband = self.seal_data(address, data, major, minor)

        # Two-stage commit: the data line plus whatever the persistence
        # scheme requires lands in the WPQ atomically (§2.7).
        self.pregs.begin()
        self.pregs.stage(address, cipher, sideband)
        self._stage_scheme_persists(counter_address, block, slot, overflowed)
        pushed = self.pregs.commit()
        self.persist_writes += pushed
        self._drain_evictions()

    # ------------------------------------------------------------------
    # per-scheme persistence policy
    # ------------------------------------------------------------------

    def _stage_scheme_persists(
        self,
        counter_address: int,
        block: SplitCounterBlock,
        slot: int,
        overflowed: bool,
    ) -> None:
        """Stage the metadata blocks this scheme persists per write."""
        if self.scheme == SchemeKind.STRICT_PERSISTENCE:
            self.pregs.stage(counter_address, block.to_bytes())
            self.counter_cache.clean(counter_address)
            for step in path_to_root(self.layout, counter_address)[1:]:
                if step.address is None:
                    break  # the root is an on-chip NVM register
                node = self.merkle_cache.peek(step.address)
                if node is not None:
                    self.pregs.stage(step.address, node.to_bytes())
                    self.merkle_cache.clean(step.address)
            return
        if self.scheme == SchemeKind.SELECTIVE:
            index = self.layout.counter_region.block_index(counter_address)
            if index < self._selective_boundary or overflowed:
                self.pregs.stage(counter_address, block.to_bytes())
            return
        if self._use_stop_loss or overflowed:
            # Stop-loss: persist when the minor crosses a multiple of N
            # (the post-overflow reset value 0 also qualifies, so an
            # overflowed page's new counters always persist).
            if overflowed or block.minor(slot) % self.stop_loss == 0:
                self.pregs.stage(counter_address, block.to_bytes())

    # ------------------------------------------------------------------
    # counter-block fetch + verification
    # ------------------------------------------------------------------

    def _get_counter_block(self, counter_address: int) -> SplitCounterBlock:
        """Return the cached counter block, fetching + verifying on miss."""
        block = self.counter_cache.access(counter_address)
        if block is not None:
            return block
        # Flush pending write-backs first so the memory image we verify
        # against is current (the full drain no-ops when re-entered from
        # eviction processing; the targeted flush still runs there).
        self._drain_evictions()
        self._flush_pending_eviction(counter_address)
        raw, written = self.read_block(counter_address)
        self.meta_fetches += 1
        self._verify_chain(counter_address, raw, written)
        block = SplitCounterBlock.from_bytes(raw)
        slot, eviction = self.counter_cache.fill(counter_address, block)
        self._on_counter_filled(slot, counter_address)
        if eviction is not None:
            self._evictions.append(("counter", eviction))
        self._drain_evictions()
        return block

    def _get_merkle_node(self, node_address: int) -> BonsaiNode:
        """Return the cached tree node, fetching + verifying on miss."""
        node = self.merkle_cache.access(node_address)
        if node is not None:
            return node
        self._drain_evictions()
        self._flush_pending_eviction(node_address)
        raw, written = self.read_block(node_address)
        self.meta_fetches += 1
        self._verify_chain(node_address, raw, written)
        node = BonsaiNode.from_bytes(raw)
        slot, eviction = self.merkle_cache.fill(node_address, node)
        self._on_merkle_filled(slot, node_address)
        if eviction is not None:
            self._evictions.append(("merkle", eviction))
        self._drain_evictions()
        return node

    def _verify_chain(
        self, block_address: int, block_bytes: bytes, written: bool
    ) -> None:
        """Verify a fetched metadata block up to the first trusted level.

        Walks ancestors upward, fetching missing nodes from memory,
        until a cached (already-verified) node or the on-chip root is
        reached; then checks hashes top-down.  Fetched ancestors are
        inserted into the Merkle cache (§2.3.1).  A block that was never
        written (``written`` False, from :meth:`read_block`) holds its
        level's default bytes, so its digest is the engine's kept
        default hash instead of a fresh one.
        """
        steps = path_to_root(self.layout, block_address)
        fetched = []  # (TreePath, raw bytes, written), bottom-up
        trusted_node: Optional[BonsaiNode] = None
        trusted_slot = 0
        for step in steps[1:]:
            if step.address is None:
                trusted_node = self.engine.root_node
                trusted_slot = step.child_slot
                break
            cached = self.merkle_cache.peek(step.address)
            if cached is not None:
                trusted_node = cached
                trusted_slot = step.child_slot
                break
            # An ancestor whose dirty eviction is still queued must be
            # written back first, or we would read (and then trust) its
            # stale memory copy.
            self._flush_pending_eviction(step.address)
            cached = self.merkle_cache.peek(step.address)
            if cached is not None:
                trusted_node = cached
                trusted_slot = step.child_slot
                break
            raw, raw_written = self.read_block(step.address)
            self.meta_fetches += 1
            fetched.append((step, raw, raw_written))

        assert trusted_node is not None
        # Verify top-down: the trusted node vouches for the highest
        # fetched block, each fetched node vouches for the one below it,
        # and the lowest vouches for the block being verified.
        leaf = steps[0]
        chain = [(leaf, block_bytes, written)] + fetched
        default_hashes = self.engine.default_hashes
        block_hash = self.engine.block_hash
        parent_node = trusted_node
        parent_slot = trusted_slot
        verified = []  # parsed fetched ancestors, top-down
        for step, raw, raw_written in reversed(chain):
            self.integrity_checks += 1
            self.channel.hash_latency()
            digest = (
                block_hash(raw) if raw_written else default_hashes[step.level]
            )
            if parent_node.child_hash(parent_slot) != digest:
                raise IntegrityError(
                    f"Merkle verification failed for block {step.address:#x}"
                )
            if step is not leaf:
                parent_node = BonsaiNode.from_bytes(raw)
                parent_slot = step.child_slot
                verified.append((step.address, parent_node))
            # the last iteration verified `block_bytes`; nothing below it

        # Insert the now-verified ancestors (top-down so lower nodes are
        # the most recently used).
        for address, node in verified:
            if not self.merkle_cache.contains(address):
                slot, eviction = self.merkle_cache.fill(address, node)
                self._on_merkle_filled(slot, address)
                if eviction is not None:
                    self._evictions.append(("merkle", eviction))

    # ------------------------------------------------------------------
    # tree updates
    # ------------------------------------------------------------------

    def _eager_update_ancestors(
        self, counter_address: int, block: SplitCounterBlock
    ) -> None:
        """Propagate a counter update through every level to the root."""
        child_bytes = block.to_bytes()
        for step in path_to_root(self.layout, counter_address)[1:]:
            child_hash = self.engine.block_hash(child_bytes)
            if step.address is None:
                self.engine.root_node.set_child_hash(step.child_slot, child_hash)
                break
            node = self._get_merkle_node(step.address)
            node.set_child_hash(step.child_slot, child_hash)
            first = self.merkle_cache.mark_dirty(step.address)
            slot = self.merkle_cache.slot_of(step.address)
            self._on_merkle_dirtied(slot, step.address, first)
            child_bytes = node.to_bytes()

    def _lazy_propagate(self, child_address: int, child_bytes: bytes) -> None:
        """Lazy policy: fold an evicted child's hash into its parent."""
        steps = path_to_root(self.layout, child_address)
        parent_step = steps[1]
        child_hash = self.engine.block_hash(child_bytes)
        if parent_step.address is None:
            self.engine.root_node.set_child_hash(parent_step.child_slot, child_hash)
            return
        node = self._get_merkle_node(parent_step.address)
        node.set_child_hash(parent_step.child_slot, child_hash)
        first = self.merkle_cache.mark_dirty(parent_step.address)
        slot = self.merkle_cache.slot_of(parent_step.address)
        self._on_merkle_dirtied(slot, parent_step.address, first)

    # ------------------------------------------------------------------
    # evictions
    # ------------------------------------------------------------------

    def _process_eviction(self, eviction: Eviction) -> None:
        """Write back one dirty victim (lazy policy folds it upward)."""
        if not eviction.dirty:
            return
        raw = eviction.payload.to_bytes()
        if not self.eager:
            self._lazy_propagate(eviction.address, raw)
        self.meta_writebacks += 1
        self.wpq.insert(eviction.address, raw)

    def _flush_pending_eviction(self, address: int) -> None:
        """Complete a queued eviction of ``address`` immediately.

        Refetching an address whose dirty eviction is still queued would
        read the stale memory copy and fork the block into two divergent
        versions; the pending payload must land first.
        """
        for position, (_kind, eviction) in enumerate(self._evictions):
            if eviction.address == address:
                del self._evictions[position]
                self._process_eviction(eviction)
                return

    def _drain_evictions(self) -> None:
        """Write back queued dirty victims (re-entrancy safe)."""
        if self._draining:
            return
        self._draining = True
        try:
            while self._evictions:
                _kind, eviction = self._evictions.popleft()
                self._process_eviction(eviction)
        finally:
            self._draining = False

    # ------------------------------------------------------------------
    # page re-encryption on minor-counter overflow
    # ------------------------------------------------------------------

    def _reencrypt_page(
        self,
        counter_address: int,
        block: SplitCounterBlock,
        skip_line: int,
    ) -> None:
        """Re-encrypt a whole page after its major counter advanced.

        ``block`` has already been bumped to the new major with minors
        reset; the previous counters are recovered from the persisted
        invariant that every line's last seal used the *pre-overflow*
        state, which we reconstruct by decrypting with the old major and
        each line's old minor — those are read back from the NVM copy of
        the counter block only when it is current, so instead we decrypt
        using the per-line counters captured before the reset.
        """
        # The caller mutated the block; reconstruct the old state.
        old_major = (block.major - 1) & ((1 << 64) - 1)
        old_minors = self._pre_overflow_minors.pop(counter_address, None)
        if old_minors is None:
            raise IntegrityError(
                f"page re-encryption at {counter_address:#x} without a "
                "pre-overflow snapshot"
            )
        self.page_reencryptions += 1
        region_index = self.layout.counter_region.block_index(counter_address)
        first_line = region_index * self.layout.lines_per_counter_block
        for offset in range(self.layout.lines_per_counter_block):
            line_address = (first_line + offset) * self.config.memory.block_size
            if line_address == skip_line:
                continue
            cipher, sideband, fresh = self.read_data_line(line_address)
            if not fresh:
                continue
            plaintext = self.open_data(
                line_address, cipher, sideband, old_major, old_minors[offset]
            )
            new_cipher, new_sideband = self.seal_data(
                line_address, plaintext, block.major, block.minor(offset)
            )
            self.wpq.insert(line_address, new_cipher, new_sideband)
            self.persist_writes += 1

    # ------------------------------------------------------------------
    # crash / shutdown
    # ------------------------------------------------------------------

    def drop_volatile(self) -> None:
        """Lose all cache contents (power failure)."""
        self.counter_cache.drop_all_volatile()
        self.merkle_cache.drop_all_volatile()
        self._evictions.clear()
        self._pre_overflow_minors.clear()
        self.pregs.abort()

    def writeback_all(self) -> None:
        """Orderly shutdown: persist every dirty metadata block."""
        for _slot, address, payload, dirty in list(self.counter_cache.resident()):
            if dirty:
                raw = payload.to_bytes()
                if not self.eager:
                    self._lazy_propagate(address, raw)
                self.wpq.insert(address, raw)
                self.counter_cache.clean(address)
        # Lazy propagation may dirty more nodes; iterate until stable.
        for _round in range(self.layout.root_level + 1):
            dirty_nodes = [
                (address, payload)
                for _slot, address, payload, dirty in self.merkle_cache.resident()
                if dirty
            ]
            if not dirty_nodes:
                break
            for address, payload in dirty_nodes:
                raw = payload.to_bytes()
                if not self.eager:
                    self._lazy_propagate(address, raw)
                self.wpq.insert(address, raw)
                self.merkle_cache.clean(address)
        self.wpq.drain_all()
