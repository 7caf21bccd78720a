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

Tree updates are eager (§2.6): the on-chip root always reflects the
latest counters, which AGIT recovery relies on.

The simulator charges no time for eager update hashes, so only their
observable results matter, and the controller computes them only where
they are observed.  An eager write (scalar, or batched by
:mod:`repro.controller.batch`) makes the same per-level cache touches,
dirty marks and AGIT hook calls as a hashing update, and records its
counter block and stored ancestors in one *stale set*: blocks whose
hash their parent does not hold yet.  :meth:`BonsaiController.settle`
hashes each stale block once, bottom-up, into its parent and the
on-chip root.  It runs where a hash is observed: at a fill that evicts
a stale block (before its bytes can leave the chip), before strict
persistence stages ancestor bytes, in :meth:`~BonsaiController.
writeback_all` and :meth:`~BonsaiController.drop_volatile`, and on
every outside read of ``engine.root_node``.  Stale blocks are always
resident, so a fetched block and its uncached ancestors are never
stale, and the cached slot a fetch verifies against already holds the
eager value.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.cache.sa_cache import Eviction, SetAssociativeCache
from repro.config import BLOCK_SIZE, SchemeKind, SystemConfig
from repro.controller.base import SecureMemoryController
from repro.counters.split import SplitCounterBlock
from repro.crypto.keys import ProcessorKeys
from repro.errors import IntegrityError
from repro.integrity.bonsai import BonsaiNode, BonsaiTreeEngine
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
        self.counter_cache = SetAssociativeCache(
            config.counter_cache, "counter_cache"
        )
        self.merkle_cache = SetAssociativeCache(
            config.merkle_cache, "merkle_cache"
        )
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
        self._evictions: Deque[Eviction] = deque()
        self._draining = False
        #: The stale set of deferred eager updates (see the module
        #: docstring): counter address -> block, and tree node address
        #: -> stored level.  Every stale block is resident.
        self._stale_counters: Dict[int, SplitCounterBlock] = {}
        self._stale_nodes: Dict[int, int] = {}
        #: ``(address, slot, hash)`` a settle could not deliver because
        #: the parent was not resident; the fill of that parent applies
        #: it (see :meth:`settle`).
        self._carried: Optional[tuple] = None
        self.engine.settle_hook = weakref.WeakMethod(self.settle)
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
        index, slot = divmod(
            address // BLOCK_SIZE, self.layout.lines_per_counter_block
        )
        block = self._get_counter_block(
            self.layout.level_bases[0] + index * BLOCK_SIZE
        )
        major, minor = block.iv_pair(slot)
        cipher, sideband, fresh = self.read_data_line(address)
        if self._evictions:
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
        index, slot = divmod(
            address // BLOCK_SIZE, self.layout.lines_per_counter_block
        )
        counter_address = self.layout.level_bases[0] + index * BLOCK_SIZE
        block = self._get_counter_block(counter_address)

        minor_max = (1 << block.minor_bits) - 1
        if block.minor(slot) == minor_max:
            self._pre_overflow_minors[counter_address] = list(block.minors)
        overflowed = block.increment(slot)
        if overflowed:
            self._reencrypt_page(counter_address, block, skip_line=address)

        first = self.counter_cache.mark_dirty(counter_address)
        cache_slot = self.counter_cache.slot_of(counter_address)
        self._on_counter_dirtied(cache_slot, counter_address, first)

        self._stale_counters[counter_address] = block
        self._eager_update_ancestors(counter_address)

        major, minor = block.iv_pair(slot)
        cipher, sideband = self.seal_data(address, data, major, minor)

        # Two-stage commit: the data line plus whatever the persistence
        # scheme requires lands in the WPQ atomically (§2.7).
        self.pregs.begin()
        self.pregs.stage(address, cipher, sideband)
        self._stage_scheme_persists(counter_address, block, slot, overflowed)
        pushed = self.pregs.commit()
        self.persist_writes += pushed
        if self._evictions:
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
            self.settle()
            self.pregs.stage(counter_address, block.to_bytes())
            self.counter_cache.clean(counter_address)
            # Every stored ancestor; the root is an on-chip NVM register.
            bases = self.layout.level_bases
            arity = self.layout.arity
            index = (counter_address - bases[0]) // BLOCK_SIZE
            for level in range(1, self.layout.root_level):
                index //= arity
                address = bases[level] + index * BLOCK_SIZE
                node = self.merkle_cache.peek(address)
                if node is not None:
                    self.pregs.stage(address, node.to_bytes())
                    self.merkle_cache.clean(address)
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
    # metadata fills: one fetch-and-verify walk
    # ------------------------------------------------------------------

    def _get_counter_block(self, counter_address: int) -> SplitCounterBlock:
        """Return the cached counter block, fetching + verifying on miss."""
        block = self.counter_cache.access(counter_address)
        if block is not None:
            return block
        raw = self._fetch_verified(0, counter_address)
        # A never-written block (``raw`` None) verified against
        # default_hashes[0], the digest of the all-zero block, so it
        # needs no parse.
        block = (
            SplitCounterBlock.from_bytes(raw)
            if raw is not None
            else SplitCounterBlock.zero()
        )
        slot, eviction = self.counter_cache.fill(counter_address, block)
        self._on_counter_filled(slot, counter_address)
        if eviction is not None:
            self._evictions.append(eviction)
            if eviction.address in self._stale_counters:
                self.settle()
        if self._evictions:
            self._drain_evictions()
        return block

    def _get_merkle_node(self, level: int, node_address: int) -> BonsaiNode:
        """Return the cached tree node at stored ``level``, fetching +
        verifying on miss."""
        node = self.merkle_cache.access(node_address)
        if node is not None:
            return node
        raw = self._fetch_verified(level, node_address)
        node = (
            BonsaiNode.from_bytes(raw)
            if raw is not None
            else self.engine.default_node(level)
        )
        slot, eviction = self.merkle_cache.fill(node_address, node)
        self._on_merkle_filled(slot, node_address)
        carried = self._carried
        if carried is not None and carried[0] == node_address:
            self._carried = None
            node.hashes[carried[1]] = carried[2]
        if eviction is not None:
            self._evictions.append(eviction)
            if eviction.address in self._stale_nodes:
                self.settle(eviction)
        if self._evictions:
            self._drain_evictions()
        return node

    def _fetch_verified(self, level: int, address: int) -> Optional[bytes]:
        """Fetch the metadata block at stored ``level`` and verify it up
        to the first trusted level; returns its bytes, or None for a
        never-written block (which holds its level's default content).

        Pending write-backs land first, so the memory image the walk
        verifies against is current.  The walk then goes up with
        ``index //= arity``, fetching each missing ancestor from memory
        (one counted ``merkle_cache`` miss each), and stops at the first
        cached (already-verified) node, which counts nothing, or at the
        on-chip root; then :meth:`_check_chain` checks hashes top-down.
        The fetched ancestors are inserted into the Merkle cache
        (§2.3.1) once every check has passed; a failed check raises with
        nothing filled.
        """
        evictions = self._evictions
        if evictions:
            # The full drain no-ops when re-entered from eviction
            # processing; the targeted flush still runs there.
            self._drain_evictions()
            if evictions:
                self._flush_pending_eviction(address)
        read_block = self.read_block
        raw = read_block(address)
        self.meta_fetches += 1

        bases = self.layout.level_bases
        arity = self.layout.arity
        root_level = self.layout.root_level
        merkle_cache = self.merkle_cache
        cached = merkle_cache._index
        payloads = merkle_cache._payloads
        index = (address - bases[level]) // BLOCK_SIZE
        # (level, address, slot in parent, raw bytes), bottom-up
        chain = [(level, address, index % arity, raw)]
        ancestor_level = level
        while True:
            ancestor_level += 1
            index //= arity
            if ancestor_level == root_level:
                # The raw root: its entry for a non-resident (so never
                # stale) top-level node is already the eager value.
                trusted = self.engine._root
                break
            ancestor = bases[ancestor_level] + index * BLOCK_SIZE
            slot = cached.get(ancestor)
            if slot is None and evictions:
                # An ancestor whose dirty eviction is still queued must
                # be written back first, or we would read (and then
                # trust) its stale memory copy.
                self._flush_pending_eviction(ancestor)
                slot = cached.get(ancestor)
            if slot is not None:
                trusted = payloads[slot]
                break
            merkle_cache.record_miss(ancestor)
            ancestor_raw = read_block(ancestor)
            self.meta_fetches += 1
            chain.append(
                (ancestor_level, ancestor, index % arity, ancestor_raw)
            )

        # Hash latency accrues on a local copy of the clock, one add per
        # check in check order, so its float bits match per-check adds.
        checks, verified = self._check_chain(chain, trusted)
        channel = self.channel
        hash_ns = channel.timing.hash_ns
        now = channel.now
        for _check in range(checks):
            now += hash_ns
        channel.now = now
        self.integrity_checks += checks
        if verified is None:
            raise IntegrityError(
                "Merkle verification failed for block "
                f"{chain[len(chain) - checks][1]:#x}"
            )

        # Insert the now-verified ancestors (top-down so lower nodes are
        # the most recently used).
        for node_address, node in verified:
            if node_address not in cached:
                slot, eviction = merkle_cache.fill(node_address, node)
                self._on_merkle_filled(slot, node_address)
                if eviction is not None:
                    evictions.append(eviction)
                    if eviction.address in self._stale_nodes:
                        self.settle(eviction)
        return raw

    def _check_chain(self, chain: list, trusted: BonsaiNode) -> tuple:
        """Check a fetched chain top-down, with no side effects.

        ``chain`` holds ``(level, address, slot in parent, raw)`` per
        fetched block, bottom-up, and ``trusted`` is the cached node or
        on-chip root above its top.  The trusted node vouches for the
        highest fetched block, each fetched node for the one below it,
        and the lowest for the block being verified; a never-written
        block's digest is ``default_hashes[level]``.  Returns ``(checks,
        verified)``: the checks made, and the parsed fetched ancestors
        top-down as ``(address, node)``, or None when the last check
        made failed.  The scalar walk and the batch window's miss
        planner both verify through here.
        """
        engine = self.engine
        default_hashes = engine.default_hashes
        block_hash = engine.block_hash
        parent = trusted
        verified = []
        for position in range(len(chain) - 1, -1, -1):
            level, address, slot, raw = chain[position]
            digest = (
                block_hash(raw) if raw is not None
                else default_hashes[level]
            )
            if parent.hashes[slot] != digest:
                return len(chain) - position, None
            if position:
                parent = (
                    BonsaiNode.from_bytes(raw) if raw is not None
                    else engine.default_node(level)
                )
                verified.append((address, parent))
            # position 0 is the block being fetched; its caller parses it
        return len(chain), verified

    # ------------------------------------------------------------------
    # tree updates
    # ------------------------------------------------------------------

    def _eager_update_ancestors(self, counter_address: int) -> None:
        """Eager update of every stored ancestor, hashes deferred.

        Per level: the node's cache touch (fetching it on a miss), its
        dirty mark and the AGIT hook, as a hashing update makes them;
        the node joins the stale set, and :meth:`settle` computes its
        hashes where they are observed.
        """
        bases = self.layout.level_bases
        arity = self.layout.arity
        merkle_cache = self.merkle_cache
        stale_nodes = self._stale_nodes
        index = (counter_address - bases[0]) // BLOCK_SIZE
        for level in range(1, self.layout.root_level):
            index //= arity
            address = bases[level] + index * BLOCK_SIZE
            self._get_merkle_node(level, address)
            first = merkle_cache.mark_dirty(address)
            self._on_merkle_dirtied(
                merkle_cache.slot_of(address), address, first
            )
            stale_nodes[address] = level

    def settle(self, victim: Optional[Eviction] = None) -> None:
        """Hash every stale block into its parent, bottom-up, each once.

        Level by level from the counter blocks: each stale block's
        digest goes into its parent's slot.  A stale parent is itself
        hashed in the next round, after all its children, so its digest
        carries every update; the top stored level's digests go into the
        on-chip root.  ``victim`` is the eviction that triggered the
        settle: its block has left the cache index, so it is reached
        through the eviction's payload.  A parent that is not resident
        is the node an eager walk is bringing in (a fill inside the walk
        evicted a node the walk had already marked, which takes fewer
        ways than stored levels): its digest is carried into it when
        the walk fills it.
        """
        counters = self._stale_counters
        stale_nodes = self._stale_nodes
        if not counters and not stale_nodes:
            return
        bases = self.layout.level_bases
        arity = self.layout.arity
        root_level = self.layout.root_level
        block_hash = self.engine.block_hash
        root_hashes = self.engine._root.hashes
        cached = self.merkle_cache._index
        payloads = self.merkle_cache._payloads
        by_level: List[list] = [list(counters.items())]
        by_level.extend([] for _level in range(1, root_level))
        for address, level in stale_nodes.items():
            slot = cached.get(address)
            node = payloads[slot] if slot is not None else victim.payload
            by_level[level].append((address, node))
        for level, blocks in enumerate(by_level):
            base = bases[level]
            parent_base = bases[level + 1]
            for address, block in blocks:
                index = (address - base) // BLOCK_SIZE
                digest = block_hash(block.to_bytes())
                if level + 1 == root_level:
                    root_hashes[index % arity] = digest
                    continue
                parent_address = parent_base + index // arity * BLOCK_SIZE
                slot = cached.get(parent_address)
                if slot is not None:
                    parent = payloads[slot]
                elif victim is not None and victim.address == parent_address:
                    parent = victim.payload
                else:
                    self._carried = (parent_address, index % arity, digest)
                    continue
                parent.hashes[index % arity] = digest
        counters.clear()
        stale_nodes.clear()

    # ------------------------------------------------------------------
    # evictions
    # ------------------------------------------------------------------

    def _process_eviction(self, eviction: Eviction) -> None:
        """Write back one dirty victim."""
        if not eviction.dirty:
            return
        self.meta_writebacks += 1
        self.wpq.insert(eviction.address, eviction.payload.to_bytes())

    def _flush_pending_eviction(self, address: int) -> None:
        """Complete a queued eviction of ``address`` immediately.

        Refetching an address whose dirty eviction is still queued would
        read the stale memory copy and fork the block into two divergent
        versions; the pending payload must land first.
        """
        for position, eviction in enumerate(self._evictions):
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
                self._process_eviction(self._evictions.popleft())
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
            line_address = (first_line + offset) * BLOCK_SIZE
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
        """Lose all cache contents (power failure).

        The on-chip root survives and reflects the latest counters, so
        deferred eager updates are settled into it first.
        """
        self.settle()
        self.counter_cache.drop_all_volatile()
        self.merkle_cache.drop_all_volatile()
        self._evictions.clear()
        self._pre_overflow_minors.clear()
        self.pregs.abort()

    def writeback_all(self) -> None:
        """Orderly shutdown: persist every dirty metadata block."""
        self.settle()
        for cache in (self.counter_cache, self.merkle_cache):
            for _slot, address, payload, dirty in cache.resident():
                if dirty:
                    self.wpq.insert(address, payload.to_bytes())
                    cache.clean(address)
        self.wpq.drain_all()
