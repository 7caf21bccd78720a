"""Batch replay engine: one hit window for both tree families.

The scalar path walks ~200 Python calls per access (controller →
metadata cache → tree → crypto).  This engine reads a trace's parallel
lists (:class:`repro.traces.trace.Trace`) and plans each access inline:
address validity, the address of the line's counter block (a Bonsai
split-counter block, or an SGX leaf version block), slot and index, with
the arithmetic of :meth:`~repro.mem.layout.MemoryLayout.
counter_block_for`.  It then replays the *hit path* — counter block
resident, no counter overflow, every ancestor the write updates
resident, no pending evictions — with the exact same state mutations
the scalar controller performs, in the exact same order.  The loop
keeps the channel clocks and cache LRU clocks in local variables
(synced back at every fallback boundary), drains/fills the WPQ and
seals lines inline.  Event tallies accumulate per window and are added
to the components' plain ``int`` counters once.

A write's seal — the SECDED code (:func:`~repro.mem.ecc.line_code`),
then three digests from the controller's pre-keyed BLAKE2b states: data
MAC, line pad and sideband pad — is a pure function of the keys, the
address, the counter ``(major, minor)`` and the payload.  Figure runs
replay one trace under many cells, and within a tree family a line's
counter moves the same way under every scheme and cache size, so the
window keeps each seal in the trace's seal memo (:meth:`~repro.traces.
trace.Trace.seal_memo`, one per key set and tree family, indexed by
trace position) and reuses an entry only when it was sealed under the
write's counter; otherwise it seals and stores the result.  Phase
recovery's cleartext phase byte is appended after the lookup, never
memoized.  Serial runs share seals across cells; ``--jobs`` workers
each unpickle their own copy of the trace, and the memo stays out of
pickles, so they do not.  The pad memo in ``crypto/ctr`` is bypassed:
a fresh seal's ``(address, major, minor)`` tuple is new and pads are
pure, so that memo's state is unobservable.

The two tree families differ only in the write's metadata update:

* **Bonsai** — a minor counter bump.  An eager write's tree update
  makes the scalar update's cache touches, dirty marks and AGIT hook
  calls, and adds its counter block and stored ancestors to the
  controller's one stale set, as the scalar write does;
  :meth:`BonsaiController.settle` hashes them only where a hash is
  observed (see :mod:`repro.controller.bonsai`), so the stale set
  carries across fallbacks and ranges unsettled.
* **SGX** — a bump of the line's 56-bit counter in its leaf version
  block, then the scheme's policy (see :mod:`repro.controller.sgx`):
  write-back and ASIT mark the leaf dirty, Osiris persists it at its
  stop-loss points (sealed inline), and strict persistence bumps every
  stored level's nonce, each child's ``parent_nonce`` and the on-chip
  root nonce and persists the whole path.

A counter-block miss is served in the window too, on both trees, when
its walk can be reproduced exactly.  A planner plans the scalar walk
without side effects: :func:`_sgx_fill_planner` the SGX ``_get_node``
walk (each node MAC-checked top-down as scalar checks it, read and
hashed node by node), :func:`_bonsai_miss_planner` the Bonsai
``_get_counter_block`` walk through ``_fetch_verified`` (the chain
checked by the controller's own ``_check_chain``, every block read
before the first hash).  Each walks the non-resident chain up to the
first resident ancestor or the on-chip root, and each names every
fill's victim through :meth:`~repro.cache.sa_cache.SetAssociativeCache.
victim`, the cache's one replacement rule, over the walk's own earlier
fills.  Only if every check passes and every victim is clean (and, on
Bonsai, not stale, with no ``_carried`` digest pending) does the window
replay the walk's misses, channel reads, hashes, fetch and check
counts, fills and fill hooks (AGIT-Read's SCT/SMT writes), then
continue on the hit path.

Anything else off the hit path — a miss that would evict a dirty or
stale block, fails a check, or (for a write) evicts a block on its own
path or leaves a stored ancestor non-resident, a counter overflow or an
ASIT LSB wrap, a pending eviction, an invalid address — drops to the
**real** scalar controller methods for exactly that access, after
syncing the local clocks back, so interleaving-sensitive machinery
(dirty evictions and the settles they trigger, failed verifications,
WPQ pressure, page re-encryption, ASIT wrap persists) runs
unmodified.  The contract, checked by ``batch_supported``:

* results are *identical* to scalar replay — same stats, same timing,
  same NVM/cache/WPQ state, same exceptions at the same access;
* anything it cannot replicate exactly (a strict persist group larger
  than the WPQ or the persistent registers, an access's AGIT shadow
  writes and persist group larger than the WPQ, live telemetry
  sessions, non-64B geometries) is refused up front and handled
  scalar.

Bytes that nothing inside a window observes are deferred as
*placeholders*: Bonsai strict persistence's ancestor bytes, SGX strict
persistence's per-level MACs and node bytes, and ASIT's node reseal,
Shadow Table entry bytes, ``st_entries`` slot and shadow-tree update.
The WPQ carries a placeholder entry where the scalar write queued real
bytes, and before every real call, before a window fill evicts a
placeholder's node and at range end ``_settle_placeholders`` writes
each placeholder once, from final state.  A range's final strict or
ASIT write runs scalar, so no pause or crash point sees a placeholder.

What a window verifies: every metadata block it fills, exactly as the
scalar walk does (on SGX a written node's MAC under its parent nonce, a
never-written node only under nonce 0; on Bonsai each block's digest
against its parent's entry, ``default_hashes`` for a never-written
one), so a tampered or lost block raises the scalar ``IntegrityError``
at the same access.  Resident metadata was verified when it was filled
and on-chip nodes are trusted, so the hit path re-verifies nothing, as
scalar does not.  Its reads make no decrypt/MAC check: within a window
nothing mutates NVM behind the controller's back, so a fresh line read
under its current counter decrypts to exactly what the last seal wrote
and the ECC/MAC checks pass deterministically — recomputing them can
only burn time, never fail.  Crash, fault, and attack injections
violate that premise, which is why campaigns replay batched in
``start``/``stop`` segments and inject only at the pauses between them,
never inside a batched range (see DESIGN.md).
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Set, Tuple

from repro.config import (
    BLOCK_SIZE,
    TREE_ARITY,
    CounterRecoveryKind,
    SchemeKind,
    TreeKind,
)
from repro.controller.base import SIDEBAND_BYTES
from repro.controller.bonsai import BonsaiController
from repro.controller.sgx import CachedNode, SgxController
from repro.counters.sgx import SgxCounterBlock
from repro.counters.split import SplitCounterBlock, pack_word
from repro.mem.ecc import ECC_BYTES, line_code
from repro.telemetry.runtime import live_tracer
from repro.util.bitops import mask

_MINOR_MAX = mask(SplitCounterBlock.minor_bits)
_SGX_COUNTER_MAX = mask(SgxCounterBlock.counter_bits)
#: WPQ entry whose bytes are written before the next real call; it
#: drains as a None block until then.
_PLACEHOLDER = (None, None)
#: Bytes of one memoized seal: the ciphertext, then the sealed sideband.
_SEAL_BYTES = BLOCK_SIZE + SIDEBAND_BYTES
#: Counter tags that fit the memo's unsigned 64-bit tag array.
_TAG_LIMIT = 1 << 64


def scalar_fallback_reason(controller) -> Optional[str]:
    """Why this controller must replay scalar, or None if it may batch.

    The reason strings feed ``batch.fallback`` events so fallback
    frequency is observable.  Refused combinations:

    * controllers of neither tree family, or a Bonsai controller on
      another tree;
    * STRICT_PERSISTENCE when one write's persist group — data,
      counter block and ``root_level - 1`` ancestors — exceeds the WPQ
      (a mid-group overflow drain) or the persistent registers (the
      scheme's own error);
    * a WPQ that one access's inserts could overflow: the window
      inserts inline and never drains mid-access.  Every scheme queues
      at most the data line and its counter block, but AGIT also writes
      a shadow entry per tracked block (``root_level`` of them: the
      counter block and each stored ancestor, first-dirtied by AGIT-Plus
      or filled by AGIT-Read), so its group is ``root_level + 2``.
    """
    if isinstance(controller, BonsaiController):
        if controller.config.tree != TreeKind.BONSAI:
            return "tree"
    elif not isinstance(controller, SgxController):
        return "controller"
    if (
        controller.scheme == SchemeKind.STRICT_PERSISTENCE
        and controller.layout.root_level + 1
        > min(controller.wpq.capacity, controller.pregs.capacity)
    ):
        return "strict_persistence"
    group = 2
    if controller.scheme in (SchemeKind.AGIT_READ, SchemeKind.AGIT_PLUS):
        group += controller.layout.root_level
    if controller.wpq.capacity < group:
        return "wpq"
    return None


def batch_supported(controller) -> bool:
    """True when ``controller`` can run the batched fast path.

    A live telemetry session also refuses batching (the event stream
    must carry per-access events in scalar order at ``--trace-detail``
    parity); every other refusal is :func:`scalar_fallback_reason`.
    """
    if live_tracer().enabled:
        return False
    return scalar_fallback_reason(controller) is None


def _override(controller, name: str):
    """The controller's bound hook ``name`` when its class overrides
    :class:`BonsaiController`'s no-op, else None: the window dispatches
    only hooks that do something."""
    if getattr(type(controller), name) is getattr(BonsaiController, name):
        return None
    return getattr(controller, name)


def _bonsai_path(layout, counter_address: int) -> Dict[int, int]:
    """A counter block's stored (in-memory) ancestor node addresses,
    bottom-up, each mapped to its stored level.

    The keys are the fast path's residency guard, and the mapping is
    the form in which a write adds them to the controller's stale set.
    Built with the ``index //= arity`` walk over ``layout.level_bases``
    that :class:`BonsaiController` uses.
    """
    bases = layout.level_bases
    arity = layout.arity
    index = (counter_address - bases[0]) // BLOCK_SIZE
    levels = {}
    for level in range(1, layout.root_level):
        index //= arity
        levels[bases[level] + index * BLOCK_SIZE] = level
    return levels


def _sgx_path(layout, leaf_address: int) -> Dict[int, int]:
    """A leaf version block's stored ancestor addresses, bottom-up, each
    mapped to the slot of its nonce that versions the node below it.

    The keys are the strict fast path's residency guard; the walk is
    :meth:`SgxController._strict_update`'s.
    """
    bases = layout.level_bases
    index = (leaf_address - bases[0]) // BLOCK_SIZE
    slots = {}
    for level in range(1, layout.root_level):
        slots[bases[level] + index // TREE_ARITY * BLOCK_SIZE] = (
            index % TREE_ARITY
        )
        index //= TREE_ARITY
    return slots


def _sgx_fill_planner(controller):
    """The window's planner of SGX leaf misses, hoisted for one range.

    ``plan(index, clock, path)`` plans the scalar miss walk of leaf
    version block ``index`` with no side effects.  The walk is
    :meth:`SgxController._get_node`'s: the non-resident chain from the
    leaf up to the first resident ancestor or the on-chip root, checked
    top-down (a written node parsed and MAC-checked, a never-written one
    accepted under nonce 0 as ``verified_default`` is), and each fill's
    victim named by :meth:`~repro.cache.sa_cache.SetAssociativeCache.
    victim`, over the walk's own earlier fills stamped from ``clock`` on.
    The WPQ is empty (it drained at the top of the access), so NVM holds
    every node's bytes.

    It returns the fills top-down as ``(address, record, slot,
    victim)``, ``victim`` the clean address the fill evicts or None; or
    None when the access must take the real call: a MAC check fails
    (scalar then raises it), a victim is dirty, or, given ``path`` (a
    strict write's stored ancestors), a victim lies on it or an
    ancestor above the chain is not resident.
    """
    cache = controller.metadata_cache
    resident = cache._index
    payloads = cache._payloads
    dirty = cache._dirty
    pick_victim = cache.victim
    bases = controller.layout.level_bases
    top = controller.layout.root_level - 1
    engine = controller.engine
    root_nonces = engine.root_block.counters
    verify = engine.verify
    verified_default = engine.verified_default
    default_node = engine.default_node
    from_bytes = SgxCounterBlock.from_bytes
    nvm_blocks = controller.nvm._blocks

    def plan(index: int, clock: int, path) -> Optional[list]:
        chain = []
        level = 0
        while True:
            chain.append((level, index, bases[level] + index * BLOCK_SIZE))
            if level == top:
                nonce = root_nonces[index % TREE_ARITY]
                break
            parent = resident.get(
                bases[level + 1] + index // TREE_ARITY * BLOCK_SIZE
            )
            if parent is not None:
                nonce = payloads[parent].node.counters[index % TREE_ARITY]
                break
            level += 1
            index //= TREE_ARITY
        if path is not None:
            planned = {address for _level, _index, address in chain}
            for ancestor in path:
                if ancestor not in resident and ancestor not in planned:
                    return None

        #: slot -> (stamp, address) of the walk's own earlier fills
        taken: Dict[int, tuple] = {}
        fills = []
        node = None
        for level, index, address in reversed(chain):
            if node is not None:
                nonce = node.counters[index % TREE_ARITY]
            raw = nvm_blocks.get(address)
            if raw is None and not nonce:
                node = verified_default()
            else:
                node = from_bytes(raw) if raw is not None else default_node()
                if not verify(node, nonce):
                    return None
            slot, victim = pick_victim(address, taken)
            if victim is not None:
                if slot not in taken and dirty[slot]:
                    return None
                if path is not None and victim in path:
                    return None
            clock += 1
            taken[slot] = (clock, address)
            fills.append(
                (address, CachedNode(node, nonce, level, index), slot, victim)
            )
        return fills

    return plan


def _bonsai_miss_planner(controller):
    """The window's planner of Bonsai counter-block misses, hoisted for
    one range.

    ``plan(counter_index, counter_address, clock, path)`` plans the
    scalar miss of counter block ``counter_index`` with no side effects.
    The walk is :meth:`BonsaiController._get_counter_block`'s through
    ``_fetch_verified``: the counter block, then its non-resident
    ancestors up to the first cached node or the on-chip root, checked
    top-down by the controller's own ``_check_chain``.  The ancestors
    fill the Merkle cache top-down, each victim named by :meth:`~repro.
    cache.sa_cache.SetAssociativeCache.victim` over the walk's earlier
    fills (stamped from ``clock`` on), and then the counter block fills
    the counter cache.  No eviction is queued and the WPQ is empty (it
    drained at the top of the access), so NVM holds every block's bytes.

    It returns ``(block, slot, victim, fills)``: the parsed counter
    block, its counter-cache slot and the clean address it evicts or
    None, and the Merkle fills top-down as ``(address, node, slot,
    victim)``.  Or None when the access must take the real call: a
    ``_carried`` digest is pending, a check fails (scalar then raises
    it), a victim is dirty or stale (its eviction would settle), or,
    given ``path`` (a write's stored ancestors), an ancestor is neither
    resident nor planned or a victim lies on the path.  Placeholders
    (strict persistence's ancestors) are always stale, so no victim
    holds one.
    """
    counter_cache = controller.counter_cache
    merkle_cache = controller.merkle_cache
    counter_victim = counter_cache.victim
    merkle_victim = merkle_cache.victim
    c_dirty = counter_cache._dirty
    resident = merkle_cache._index
    payloads = merkle_cache._payloads
    m_dirty = merkle_cache._dirty
    stale_counters = controller._stale_counters
    stale_nodes = controller._stale_nodes
    check_chain = controller._check_chain
    engine = controller.engine
    layout = controller.layout
    bases = layout.level_bases
    arity = layout.arity
    root_level = layout.root_level
    nvm_blocks = controller.nvm._blocks
    from_bytes = SplitCounterBlock.from_bytes
    zero = SplitCounterBlock.zero

    def plan(
        counter_index: int, counter_address: int, clock: int, path
    ) -> Optional[tuple]:
        if controller._carried is not None:
            return None
        # The counter block's victim first: a dirty one (Fig. 7's
        # thrashing counter cache) refuses before the climb.
        counter_slot, evicted = counter_victim(counter_address)
        if evicted is not None and (
            c_dirty[counter_slot] or evicted in stale_counters
        ):
            return None
        raw = nvm_blocks.get(counter_address)
        # (level, address, slot in parent, raw bytes), bottom-up
        chain = [(0, counter_address, counter_index % arity, raw)]
        index = counter_index
        for level in range(1, root_level):
            index //= arity
            address = bases[level] + index * BLOCK_SIZE
            slot = resident.get(address)
            if slot is not None:
                trusted = payloads[slot]
                break
            chain.append(
                (level, address, index % arity, nvm_blocks.get(address))
            )
        else:
            trusted = engine._root
        if path is not None:
            for ancestor, level in path.items():
                if level >= len(chain) and ancestor not in resident:
                    return None

        #: slot -> (stamp, address) of the walk's own earlier fills
        taken: Dict[int, tuple] = {}
        slots = []
        for position in range(len(chain) - 1, 0, -1):
            address = chain[position][1]
            slot, victim = merkle_victim(address, taken)
            if victim is not None:
                if slot not in taken and (
                    m_dirty[slot] or victim in stale_nodes
                ):
                    return None
                if path is not None and victim in path:
                    return None
            clock += 1
            taken[slot] = (clock, address)
            slots.append((slot, victim))

        _checks, verified = check_chain(chain, trusted)
        if verified is None:
            return None
        block = from_bytes(raw) if raw is not None else zero()
        fills = [
            (address, node, node_slot, node_victim)
            for (address, node), (node_slot, node_victim)
            in zip(verified, slots)
        ]
        return block, counter_slot, evicted, fills

    return plan


def _settle_placeholders(controller, placeholders: Set[int]) -> None:
    """Write the final bytes of every placeholder the window queued.

    That is exactly what scalar replay left there.  Every strict write
    persists its whole path and every ASIT write its leaf's Shadow Table
    entry, so a placeholder's last persist carried the state it has
    now; and the WPQ is empty here (it drains at the top of every
    access), so every placeholder has already reached NVM.  Bonsai
    placeholders are ancestor addresses, settled from the stale set
    first; SGX strict ones are node addresses, resealed here; ASIT ones
    are leaf addresses, resealed and snapshotted into their slots'
    entries and the shadow tree.
    """
    nvm_blocks = controller.nvm._blocks
    if isinstance(controller, BonsaiController):
        controller.settle()
        cache = controller.merkle_cache
        for address in placeholders:
            nvm_blocks[address] = cache._payloads[
                cache._index[address]
            ].to_bytes()
    elif controller.scheme == SchemeKind.ASIT:
        cache = controller.metadata_cache
        st_base = controller.layout.st.base
        update = controller.shadow_tree.update
        for address in placeholders:
            slot = cache._index[address]
            entry = controller._snapshot(address, cache._payloads[slot])
            controller.st_entries[slot] = entry
            raw = entry.to_bytes()
            nvm_blocks[st_base + slot * BLOCK_SIZE] = raw
            update(slot, raw)
    else:
        cache = controller.metadata_cache
        seal = controller.engine.seal
        for address in placeholders:
            record = cache._payloads[cache._index[address]]
            seal(record.node, record.parent_nonce)
            nvm_blocks[address] = record.node.to_bytes()
    placeholders.clear()


def _seal_memo(controller, trace) -> Tuple[memoryview, array]:
    """The trace's seal memo for the controller's key set and tree
    family, created empty on first use.

    It is ``(seals, tags)``: a view of one ``bytearray`` holding
    position ``p``'s seal at ``seals[p * _SEAL_BYTES:]``, its ciphertext
    then its sealed sideband, and ``tags[p]``, the counter it was sealed
    under, ``major << minor_bits | minor`` (0: none; every write's
    counter is nonzero).  Keeping the families apart lets one trace
    alternate Bonsai and SGX cells (Fig. 12) without their counters
    overwriting each other's entries.
    """
    memos = trace.seal_memo()
    key = (controller.keys, controller.config.tree)
    memo = memos.get(key)
    if memo is None:
        length = len(trace)
        memo = memos[key] = (
            memoryview(bytearray(_SEAL_BYTES * length)),
            array("Q", [0]) * length,
        )
    return memo


def run_batched_range(
    controller,
    trace,
    start: int,
    stop: int,
    shadow: Dict[int, bytes],
) -> None:
    """Replay accesses ``[start, stop)`` of ``trace`` through
    ``controller``, batched.

    The caller (``replay_batched``) guarantees :func:`batch_supported`
    returned True.  ``shadow`` receives every write's plaintext exactly
    as scalar replay records it.
    """
    addresses = trace.addresses
    writes = trace.is_write
    gaps = trace.gaps
    data = trace.data
    layout = controller.layout
    # Operands of check_data_address() and counter_block_for(), hoisted.
    data_end = layout.data.end
    counter_base = layout.level_bases[0]
    lines_per_block = layout.lines_per_counter_block
    channel = controller.channel
    timing = channel.timing
    read_ns = timing.nvm_read_ns
    hash_ns = timing.hash_ns
    # Posted-write occupancy, hoisted: channel.write() computes this
    # exact expression per call.
    write_occupancy = timing.nvm_write_ns * (
        1.0 - timing.background_write_overlap
    )
    observe_stall = channel.read_stall.observe
    wpq = controller.wpq
    pending = wpq._pending
    nvm = controller.nvm
    nvm_blocks = nvm._blocks
    nvm_ecc = nvm._ecc
    write_counts = nvm._write_counts
    evictions = controller._evictions
    scheme = controller.scheme
    strict = scheme == SchemeKind.STRICT_PERSISTENCE
    stop_loss = controller.stop_loss
    sgx = isinstance(controller, SgxController)
    if sgx:
        # One combined cache holds the leaf version blocks and their
        # ancestors, so both roles below name it.
        counter_cache = controller.metadata_cache
        merkle_cache = None
        walk = strict
        tree_path = _sgx_path
        asit = scheme == SchemeKind.ASIT
        # A pre-increment guard: the bump would wrap the counter's ASIT
        # LSB field (a node persist) or, for the other schemes, all 56
        # bits.  Both take the real call.
        lsb_mask = mask(controller.lsb_bits) if asit else _SGX_COUNTER_MAX
        sgx_stop_loss = scheme == SchemeKind.OSIRIS
        seal_node = controller.engine.seal
        root_nonces = controller.engine.root_block.counters
        # Leaf index -> top stored level's node index.
        root_stride = TREE_ARITY ** (layout.root_level - 1)
        st_base = layout.st.base
        plan_fill = _sgx_fill_planner(controller)
        selective = bonsai_strict = use_stop_loss = False
        counter_hook = merkle_hook = None
    else:
        counter_cache = controller.counter_cache
        merkle_cache = controller.merkle_cache
        walk = True  # eager: every write updates its stored ancestors
        tree_path = _bonsai_path
        asit = False
        selective = scheme == SchemeKind.SELECTIVE
        bonsai_strict = strict
        use_stop_loss = controller._use_stop_loss
        # AGIT's dirty (AGIT-Plus) and fill (AGIT-Read) hooks.
        counter_hook = _override(controller, "_on_counter_dirtied")
        merkle_hook = _override(controller, "_on_merkle_dirtied")
        counter_fill_hook = _override(controller, "_on_counter_filled")
        merkle_fill_hook = _override(controller, "_on_merkle_filled")
        plan_miss = _bonsai_miss_planner(controller)
    c_index = counter_cache._index
    c_payloads = counter_cache._payloads
    c_dirty = counter_cache._dirty
    c_stamps = counter_cache._stamps
    c_tags = counter_cache._tags
    if merkle_cache is not None:
        m_index = merkle_cache._index
        m_dirty = merkle_cache._dirty
        m_stamps = merkle_cache._stamps
        m_tags = merkle_cache._tags
        m_payloads = merkle_cache._payloads
    else:
        m_index = c_index
    # Bonsai strict persistence cleans the counter and every ancestor
    # right after dirtying them; the other schemes leave them dirty.
    keep_dirty = not strict
    selective_boundary = getattr(controller, "_selective_boundary", 0)
    encryption = controller.config.encryption
    phase_recovery = encryption.counter_recovery == CounterRecoveryKind.PHASE
    phase_mask = mask(encryption.phase_bits) if phase_recovery else 0
    # The controller's own pre-keyed digests: data MAC, line pad and
    # sideband pad, bit-identical to the scalar seal's.
    data_mac = controller._data_mac.value
    line_pad = controller.ctr_engine.line_pad.value
    side_pad = controller.ctr_engine._ecc_pad_hash(SIDEBAND_BYTES).value
    int_from = int.from_bytes
    seals, seal_tags = _seal_memo(controller, trace)
    real_read = controller.read
    real_write = controller.write
    #: counter address -> its ancestors, kept on the controller so
    #: segmented replays share it.
    path_memo = getattr(controller, "_batch_path_memo", None)
    if path_memo is None:
        path_memo = controller._batch_path_memo = {}
    minor_bits = SplitCounterBlock.minor_bits
    stale_counters = getattr(controller, "_stale_counters", None)
    stale_nodes = getattr(controller, "_stale_nodes", None)

    #: counter address -> packed 512-bit serialization of a Bonsai
    #: block's *current* state.  The fast path owns every mutation
    #: between fallbacks, so each write updates the word with one
    #: shifted add (a minor bump never carries across its 7-bit field)
    #: instead of re-packing 64 fields per persist; invalidated
    #: wholesale at every real call, which may mutate blocks behind it.
    packed: Dict[int, int] = {}
    #: addresses the window queued as placeholders, whose bytes
    #: ``_settle_placeholders`` writes before every real call.
    placeholders: Set[int] = set()

    # Window tallies, added to the components' counters once on exit.
    t_data_reads = 0
    t_data_writes = 0
    t_integrity = 0
    t_persist = 0
    t_shadow = 0
    t_channel_reads = 0
    t_channel_writes = 0
    t_nvm_reads = 0
    t_nvm_writes = 0
    t_wpq_inserts = 0
    t_wpq_drains = 0
    t_counter_hits = 0
    t_counter_first = 0
    t_merkle_hits = 0
    t_merkle_first = 0
    t_meta_fetches = 0
    t_counter_misses = 0
    t_counter_evictions = 0
    t_merkle_misses = 0
    t_merkle_evictions = 0

    # Channel and LRU clocks live in locals inside the loop; they sync
    # back to their objects around every real (scalar-fallback) call
    # and on exit.  ``locals_live`` guards the final sync: when an
    # exception escapes a real call the objects are already current and
    # the locals are stale.
    ch_now = channel.now
    ch_busy = channel.busy_until
    c_clock = counter_cache._clock
    m_clock = merkle_cache._clock if merkle_cache is not None else 0
    locals_live = True

    # A write mid-stage would make the inline commit diverge from
    # pregs semantics; it cannot happen between accesses (begin/commit
    # and abort are paired), so refuse the whole window if it somehow
    # is the case and let scalar raise the scheme's own error.
    fast_writes_ok = not controller.pregs._open
    # The range's final strict or ASIT write runs scalar, so the WPQ it
    # leaves behind (seen by campaign pauses and crash points) holds
    # real bytes, never placeholders.
    deferred_last = stop - 1 if strict or asit else -1

    try:
        for position in range(start, stop):
            address = addresses[position]
            # access(): advance, then opportunistic drain — inlined (the
            # whole backlog drains; each entry is one NVM write plus
            # posted channel occupancy).
            ch_now += gaps[position]
            if pending:
                drained = 0
                while pending:
                    a, entry = pending.popitem(last=False)
                    e = entry[1]
                    nvm_blocks[a] = entry[0]
                    if e is not None:
                        nvm_ecc[a] = e
                    write_counts[a] = write_counts.get(a, 0) + 1
                    if ch_busy < ch_now:
                        ch_busy = ch_now
                    ch_busy += write_occupancy
                    drained += 1
                t_wpq_drains += drained
                t_nvm_writes += drained
                t_channel_writes += drained

            # check_data_address(), counter_block_for() and
            # counter_slot_for(), inlined.  An invalid address takes the
            # real call below, which raises the scalar path's error.
            valid = not address % BLOCK_SIZE and 0 <= address < data_end
            if valid:
                line = address // BLOCK_SIZE
                counter_index = line // lines_per_block
                counter_address = counter_base + counter_index * BLOCK_SIZE
                cslot = line % lines_per_block

            is_write = writes[position]
            if is_write:
                blob = data[position]
                ready = (
                    fast_writes_ok
                    and position != deferred_last
                    and valid
                    and not evictions
                    and blob is not None
                    and len(blob) == BLOCK_SIZE
                )
            else:
                ready = valid and not evictions
            slot_index = c_index.get(counter_address) if ready else None
            # 0 when the window has just filled the counter block below:
            # scalar counted that access() as the leaf's miss, not a hit.
            leaf_hit = 1
            if slot_index is None and ready and sgx:
                # ------------- SGX miss walk -------------
                if is_write and walk:
                    ancestors = path_memo.get(counter_address)
                    if ancestors is None:
                        ancestors = path_memo[counter_address] = (
                            tree_path(layout, counter_address)
                        )
                    fills = plan_fill(counter_index, c_clock, ancestors)
                else:
                    fills = plan_fill(counter_index, c_clock, None)
                if (
                    fills is not None
                    and is_write
                    and fills[-1][1].node.counters[cslot] & lsb_mask
                    == lsb_mask
                ):
                    fills = None  # the hit path's wrap guard
                if fills is not None:
                    # Per node, top-down: the counted miss, read_block()
                    # (channel read and stall), the fetch's hash, then
                    # fill() with its clean eviction.
                    for fill_address, fill_record, fill_slot, victim in fills:
                        started = ch_now if ch_now >= ch_busy else ch_busy
                        done = started + read_ns
                        ch_busy = done
                        observe_stall(done - ch_now)
                        ch_now = done + hash_ns
                        if victim is not None:
                            if victim in placeholders:
                                _settle_placeholders(controller, placeholders)
                            del c_index[victim]
                            t_counter_evictions += 1
                        c_index[fill_address] = fill_slot
                        c_tags[fill_slot] = fill_address
                        c_payloads[fill_slot] = fill_record
                        c_dirty[fill_slot] = False
                        c_clock += 1
                        c_stamps[fill_slot] = c_clock
                    filled = len(fills)
                    t_meta_fetches += filled
                    t_counter_misses += filled
                    t_channel_reads += filled
                    t_nvm_reads += filled
                    t_integrity += filled
                    # The hit path's leaf touch takes the leaf fill's
                    # clock tick, so it rewrites the same stamp.
                    c_clock -= 1
                    slot_index = fill_slot
                    leaf_hit = 0
            elif slot_index is None and ready:
                # ------------- Bonsai miss walk -------------
                if is_write:
                    ancestors = path_memo.get(counter_address)
                    if ancestors is None:
                        ancestors = path_memo[counter_address] = (
                            tree_path(layout, counter_address)
                        )
                    planned = plan_miss(
                        counter_index, counter_address, m_clock, ancestors
                    )
                    if (
                        planned is not None
                        and planned[0].minors[cslot] >= _MINOR_MAX
                    ):
                        planned = None  # the hit path's overflow guard
                else:
                    planned = plan_miss(
                        counter_index, counter_address, m_clock, None
                    )
                if planned is not None:
                    block, fill_slot, victim, fills = planned
                    # _fetch_verified(): one read_block() (channel read
                    # and stall) per fetched block, the counter block
                    # first, then one hash per check.
                    fetched = len(fills) + 1
                    for _fetch in range(fetched):
                        started = ch_now if ch_now >= ch_busy else ch_busy
                        done = started + read_ns
                        ch_busy = done
                        observe_stall(done - ch_now)
                        ch_now = done
                    for _check in range(fetched):
                        ch_now += hash_ns
                    # The ancestors' fills top-down, each with its fill
                    # hook, then the counter block's; every victim is
                    # clean, so its eviction only counts.
                    for node_address, node, node_slot, node_victim in fills:
                        if node_victim is not None:
                            del m_index[node_victim]
                            t_merkle_evictions += 1
                        m_index[node_address] = node_slot
                        m_tags[node_slot] = node_address
                        m_payloads[node_slot] = node
                        m_dirty[node_slot] = False
                        m_clock += 1
                        m_stamps[node_slot] = m_clock
                        if merkle_fill_hook is not None:
                            merkle_fill_hook(node_slot, node_address)
                    if victim is not None:
                        del c_index[victim]
                        t_counter_evictions += 1
                        packed.pop(victim, None)
                    packed.pop(counter_address, None)
                    c_index[counter_address] = fill_slot
                    c_tags[fill_slot] = counter_address
                    c_payloads[fill_slot] = block
                    c_dirty[fill_slot] = False
                    c_clock += 1
                    c_stamps[fill_slot] = c_clock
                    if counter_fill_hook is not None:
                        counter_fill_hook(fill_slot, counter_address)
                    t_meta_fetches += fetched
                    t_counter_misses += 1
                    t_merkle_misses += fetched - 1
                    t_channel_reads += fetched
                    t_nvm_reads += fetched
                    t_integrity += fetched
                    # As on SGX, the hit path's touch takes the fill's
                    # clock tick.
                    c_clock -= 1
                    slot_index = fill_slot
                    leaf_hit = 0
            if not is_write:
                # ---------------- read ----------------
                if slot_index is not None:
                    t_data_reads += 1
                    # The counter block's access() hit: LRU touch + tally.
                    t_counter_hits += leaf_hit
                    c_clock += 1
                    c_stamps[slot_index] = c_clock
                    if sgx:
                        line_counter = c_payloads[slot_index].node.counters[
                            cslot
                        ]
                    else:
                        line_counter = c_payloads[slot_index].minors[cslot]
                    # read_data_line(): the WPQ was just drained, so no
                    # forwarding; channel.read() + one NVM read.
                    started = ch_now if ch_now >= ch_busy else ch_busy
                    done = started + read_ns
                    ch_busy = done
                    t_channel_reads += 1
                    observe_stall(done - ch_now)
                    ch_now = done
                    t_nvm_reads += 1
                    if address not in nvm_blocks:
                        if line_counter:
                            raise IntegrityErrorAt(address)
                        continue  # architectural zeros, nothing to check
                    # hash_latency() for the data MAC, then open_data() —
                    # which deterministically succeeds in a clean window
                    # (see module docstring), so only its clock and
                    # counter effects are replayed.
                    ch_now += hash_ns
                    t_integrity += 1
                    continue
            else:
                # ---------------- write ----------------
                fast = slot_index is not None
                if fast:
                    if sgx:
                        record = c_payloads[slot_index]
                        counters = record.node.counters
                        counter = counters[cslot]
                        if counter & lsb_mask == lsb_mask:
                            fast = False
                    else:
                        block = c_payloads[slot_index]
                        minor = block.minors[cslot]
                        if minor >= _MINOR_MAX:
                            fast = False  # overflow: page re-encryption
                    if fast and walk:
                        ancestors = path_memo.get(counter_address)
                        if ancestors is None:
                            ancestors = path_memo[counter_address] = (
                                tree_path(layout, counter_address)
                            )
                        for ancestor in ancestors:
                            if ancestor not in m_index:
                                fast = False
                                break
                if fast:
                    t_data_writes += 1
                    t_counter_hits += leaf_hit
                    pushed = 0
                    if sgx:
                        # The leaf's access() hit, then the increment.
                        line_counter = counter + 1
                        counters[cslot] = line_counter
                        iv_major = line_counter
                        iv_minor = 0
                        if strict:
                            # _strict_update(): a counted hit on every
                            # stored level bottom-up, each nonce bump
                            # recorded as its child's parent_nonce, the
                            # root nonce for the top level; every level
                            # cleaned and persisted, leaf first.  The
                            # reseals are deferred as placeholders.
                            c_clock += 1
                            c_stamps[slot_index] = c_clock
                            c_dirty[slot_index] = False
                            pending[counter_address] = _PLACEHOLDER
                            child = record
                            for ancestor, child_slot in ancestors.items():
                                ancestor_slot = c_index[ancestor]
                                c_clock += 1
                                c_stamps[ancestor_slot] = c_clock
                                c_dirty[ancestor_slot] = False
                                parent = c_payloads[ancestor_slot]
                                nonces = parent.node.counters
                                # increment(): 56 bits, wrapping to 0.
                                nonce = (
                                    nonces[child_slot] + 1
                                ) & _SGX_COUNTER_MAX
                                nonces[child_slot] = nonce
                                child.parent_nonce = nonce
                                pending[ancestor] = _PLACEHOLDER
                                child = parent
                            root_slot = (
                                counter_index // root_stride % TREE_ARITY
                            )
                            nonce = (
                                root_nonces[root_slot] + 1
                            ) & _SGX_COUNTER_MAX
                            root_nonces[root_slot] = nonce
                            child.parent_nonce = nonce
                            placeholders.add(counter_address)
                            placeholders.update(ancestors)
                            t_counter_hits += len(ancestors)
                            pushed = 1 + len(ancestors)
                        else:
                            # _lazy_update(): the hit, then mark_dirty():
                            # two LRU touches, and only the second stamp
                            # survives.
                            c_clock += 2
                            c_stamps[slot_index] = c_clock
                            if not c_dirty[slot_index]:
                                t_counter_first += 1
                                c_dirty[slot_index] = True
                            if asit:
                                # _touch_node(): the reseal and the ST
                                # entry are placeholders; shadow_write()
                                # queues the entry ahead of the data.
                                pending[
                                    st_base + slot_index * BLOCK_SIZE
                                ] = _PLACEHOLDER
                                placeholders.add(counter_address)
                                t_shadow += 1
                                t_wpq_inserts += 1
                            elif (
                                sgx_stop_loss
                                and line_counter % stop_loss == 0
                            ):
                                # Stop-loss: the sealed leaf is staged
                                # ahead of the data line.
                                node = record.node
                                seal_node(node, record.parent_nonce)
                                pending[counter_address] = (
                                    node.to_bytes(),
                                    None,
                                )
                                pushed = 1
                    else:
                        # _get_counter_block() hit then mark_dirty(): two
                        # LRU touches; only the second stamp survives.
                        c_clock += 2
                        c_stamps[slot_index] = c_clock
                        # block.increment(): no overflow by the guard.
                        line_counter = minor + 1
                        block.minors[cslot] = line_counter
                        iv_major = block.major
                        iv_minor = line_counter
                        word = packed.get(counter_address)
                        if word is None:
                            word = pack_word(block.major, block.minors)
                        else:
                            word += 1 << (64 + minor_bits * cslot)
                        packed[counter_address] = word
                        first = not c_dirty[slot_index]
                        if first:
                            t_counter_first += 1
                        c_dirty[slot_index] = keep_dirty
                        if counter_hook is not None:
                            counter_hook(slot_index, counter_address, first)
                        # _eager_update_ancestors(), hash math
                        # deferred: per level one access() hit touch +
                        # one mark_dirty().
                        for ancestor in ancestors:
                            merkle_slot = m_index[ancestor]
                            t_merkle_hits += 1
                            m_clock += 2
                            m_stamps[merkle_slot] = m_clock
                            merkle_first = not m_dirty[merkle_slot]
                            if merkle_first:
                                t_merkle_first += 1
                            m_dirty[merkle_slot] = keep_dirty
                            if merkle_hook is not None:
                                merkle_hook(
                                    merkle_slot, ancestor, merkle_first
                                )
                        stale_counters[counter_address] = block
                        stale_nodes.update(ancestors)

                    # seal_data(), inlined: the trace's memoized seal
                    # when it was made under this counter, else SECDED,
                    # keyed MAC and counter-mode pads straight from
                    # BLAKE2b (bypassing the pad memo — the tuple is
                    # fresh, so a memo round-trip is pure overhead),
                    # memoized.  Then the optional phase byte.
                    # Bit-for-bit the scalar seal.
                    tag = iv_major << minor_bits | iv_minor
                    offset = position * _SEAL_BYTES
                    if seal_tags[position] == tag:
                        cipher = bytes(seals[offset : offset + BLOCK_SIZE])
                        sideband = bytes(
                            seals[offset + BLOCK_SIZE : offset + _SEAL_BYTES]
                        )
                    else:
                        iv = (
                            address.to_bytes(8, "little")
                            + iv_major.to_bytes(8, "little")
                            + iv_minor.to_bytes(8, "little")
                        )
                        mac = data_mac(iv + blob)
                        cipher = (
                            int_from(blob, "little") ^ line_pad(iv)
                        ).to_bytes(BLOCK_SIZE, "little")
                        sideband = (
                            (line_code(blob) | mac << 8 * ECC_BYTES)
                            ^ side_pad(b"ecc" + iv)
                        ).to_bytes(SIDEBAND_BYTES, "little")
                        if tag < _TAG_LIMIT:
                            seals[offset : offset + _SEAL_BYTES] = (
                                cipher + sideband
                            )
                            seal_tags[position] = tag
                    if phase_recovery:
                        sideband += bytes([line_counter & phase_mask])

                    # pregs.begin()/stage()/commit() reduces to in-order
                    # WPQ inserts of the staged group: SGX metadata above,
                    # then the data line, then a Bonsai counter block
                    # when the scheme persists it and strict's ancestors
                    # bottom-up.  The queue held at most this access's
                    # entries, so no coalesce and no overflow drain (the
                    # group fits the WPQ: checked by batch_supported).
                    pending[address] = (cipher, sideband)
                    pushed += 1
                    if selective:
                        if counter_index < selective_boundary:
                            pending[counter_address] = (
                                word.to_bytes(BLOCK_SIZE, "little"),
                                None,
                            )
                            pushed += 1
                    elif bonsai_strict:
                        pending[counter_address] = (
                            word.to_bytes(BLOCK_SIZE, "little"),
                            None,
                        )
                        for ancestor in ancestors:
                            pending[ancestor] = _PLACEHOLDER
                        placeholders.update(ancestors)
                        pushed += 1 + len(ancestors)
                    elif use_stop_loss and line_counter % stop_loss == 0:
                        pending[counter_address] = (
                            word.to_bytes(BLOCK_SIZE, "little"),
                            None,
                        )
                        pushed += 1
                    t_persist += pushed
                    t_wpq_inserts += pushed
                    shadow[address] = blob
                    continue

            # ------------- the real scalar call -------------
            if placeholders:
                _settle_placeholders(controller, placeholders)
            channel.now = ch_now
            channel.busy_until = ch_busy
            counter_cache._clock = c_clock
            if merkle_cache is not None:
                merkle_cache._clock = m_clock
            locals_live = False
            if is_write:
                real_write(address, blob)
                shadow[address] = blob
            else:
                real_read(address)
            ch_now = channel.now
            ch_busy = channel.busy_until
            c_clock = counter_cache._clock
            if merkle_cache is not None:
                m_clock = merkle_cache._clock
            locals_live = True
            if packed:
                packed.clear()
    except IntegrityErrorAt as marker:
        from repro.errors import IntegrityError

        raise IntegrityError(
            f"counter names a written line at {marker.address:#x} but "
            "NVM holds no data for it"
        ) from None
    finally:
        if locals_live:
            channel.now = ch_now
            channel.busy_until = ch_busy
            counter_cache._clock = c_clock
            if merkle_cache is not None:
                merkle_cache._clock = m_clock
        if placeholders:
            _settle_placeholders(controller, placeholders)
        controller.data_reads += t_data_reads
        controller.data_writes += t_data_writes
        controller.integrity_checks += t_integrity
        controller.persist_writes += t_persist
        controller.shadow_writes += t_shadow
        channel.reads += t_channel_reads
        channel.writes += t_channel_writes
        nvm.reads += t_nvm_reads
        nvm.writes += t_nvm_writes
        wpq.inserts += t_wpq_inserts
        wpq.drains += t_wpq_drains
        counter_cache.hits += t_counter_hits
        counter_cache.first_dirty += t_counter_first
        if t_meta_fetches:
            controller.meta_fetches += t_meta_fetches
            counter_cache.misses += t_counter_misses
            counter_cache.evictions_clean += t_counter_evictions
        if merkle_cache is not None:
            merkle_cache.hits += t_merkle_hits
            merkle_cache.first_dirty += t_merkle_first
            merkle_cache.misses += t_merkle_misses
            merkle_cache.evictions_clean += t_merkle_evictions


class IntegrityErrorAt(Exception):
    """Internal marker: a fast-path read hit the lost-write invariant.

    Converted to the scalar path's exact :class:`~repro.errors.
    IntegrityError` after the local clocks and tallies are synced back,
    so post-mortem controller state (the unsettled stale set included)
    matches a scalar run that raised at the same access.
    """

    def __init__(self, address: int) -> None:
        super().__init__(address)
        self.address = address
