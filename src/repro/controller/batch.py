"""Chunked batch replay engine for Bonsai-family controllers.

The scalar path walks ~200 Python calls per access (controller →
metadata cache → tree → crypto).  This engine processes a trace's
columnar form (:meth:`repro.traces.trace.Trace.to_columns`) in chunks:
per chunk it vectorizes address decomposition (`mem/layout`), residency
classification (`cache/metadata_cache`), and SECDED precompute
(`mem/ecc`), then runs a specialized inner loop that replays the
*steady-state hit path* — counter block resident, no minor overflow,
(eager) tree ancestors resident, no pending evictions — with the exact
same state mutations the scalar controller performs, in the exact same
order.  The loop keeps the channel clocks and cache LRU clocks in local
variables (synced back at every fallback boundary), drains/fills the
WPQ and seals lines inline (three digests per write from the
controller's pre-keyed BLAKE2b states: line pad, sideband pad, MAC —
the pad memo in `crypto/ctr` is bypassed
because steady-state seals always use a fresh ``(address, major,
minor)`` tuple and pads are pure, so memo state is unobservable).
Event tallies accumulate per window and are added to the components'
plain ``int`` counters once, and tree-hash propagation for dirtied counters is
deferred to window/fallback boundaries where any propagation order
reproduces the scalar final state.

Anything off the hit path — a metadata miss, a counter overflow, a
pending eviction, an invalid address — drops to the **real** scalar
controller methods for exactly that access, after flushing deferred
tree state and syncing the local clocks back, so
interleaving-sensitive machinery (verification chains, evictions, WPQ
pressure, AGIT fill hooks, page re-encryption) runs unmodified.  The
contract, checked by ``batch_supported``:

* results are *identical* to scalar replay — same stats, same timing,
  same NVM/cache/WPQ state, same exceptions at the same access;
* anything it cannot replicate exactly (strict persistence's per-write
  ancestor staging, SGX-family controllers, live telemetry sessions,
  non-64B geometries, single-entry WPQs) is refused up front and
  handled scalar.

Why skipping decrypt/MAC verification on the fast read path is sound:
within a batched window nothing mutates NVM behind the controller's
back, so a fresh line read under its current (major, minor) decrypts to
exactly what the last seal wrote and the ECC/MAC checks pass
deterministically — recomputing them can only burn time, never fail.
Crash, fault, and attack injections violate that premise, which is why
campaigns replay batched in ``start``/``stop`` segments and inject only
at the pauses between them, never inside a batched range (see
DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import (
    BLOCK_SIZE,
    CounterRecoveryKind,
    SchemeKind,
    TreeKind,
)
from repro.controller.base import SIDEBAND_BYTES
from repro.controller.bonsai import BonsaiController
from repro.counters.split import SplitCounterBlock
from repro.integrity.geometry import path_to_root
from repro.telemetry.runtime import live_tracer
from repro.util.bitops import mask

#: Accesses per planning chunk.  Large enough to amortize the numpy
#: passes, small enough that residency snapshots stay useful.
DEFAULT_CHUNK = 4096

_MINOR_MAX = mask(SplitCounterBlock.minor_bits)


def scalar_fallback_reason(controller) -> Optional[str]:
    """Why this controller must replay scalar, or None if it may batch.

    The reason strings feed ``batch.fallback`` events so fallback
    frequency is observable.  Refused combinations:

    * non-Bonsai controllers (SGX/ASIT use lazy combined-cache
      verification with parent-nonce coupling — no steady-state window
      where skipping it is provably exact);
    * STRICT_PERSISTENCE (stages *cached ancestors* and cleans them on
      every write — per-access tree traffic, nothing to batch);
    * non-64B block geometries (the vectorized decomposition assumes
      the global ``BLOCK_SIZE``);
    * a single-entry WPQ (the inline insert assumes one access's
      data + counter pair fits without a mid-insert overflow drain);
    * an armed metric sampler (the op-tick series must observe every
      request in scalar order);
    * numpy missing.
    """
    if not isinstance(controller, BonsaiController):
        return "controller"
    if controller.scheme == SchemeKind.STRICT_PERSISTENCE:
        return "strict_persistence"
    if controller.config.tree != TreeKind.BONSAI:
        return "tree"
    if controller.config.memory.block_size != BLOCK_SIZE:
        return "geometry"
    if controller.wpq.capacity < 2:
        return "wpq"
    from repro.telemetry.runtime import sampling_active

    if sampling_active():
        return "sampling"
    from repro.traces.trace import numpy_or_none

    if numpy_or_none() is None:
        return "numpy"
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


def _tree_path(controller, counter_address: int) -> tuple:
    """Memoized ``(ancestors, steps)`` of a counter block's tree path.

    ``ancestors`` is the tuple of stored (in-memory) ancestor node
    addresses, bottom-up — the fast-path residency guard.  ``steps``
    is the full bottom-up ``(parent_address_or_None, child_slot)``
    sequence the flusher walks; the final step's address is None (the
    on-chip root).
    """
    memo = getattr(controller, "_batch_path_memo", None)
    if memo is None:
        memo = controller._batch_path_memo = {}
    entry = memo.get(counter_address)
    if entry is None:
        steps = tuple(
            (step.address, step.child_slot)
            for step in path_to_root(controller.layout, counter_address)[1:]
        )
        ancestors = tuple(a for a, _ in steps if a is not None)
        entry = (ancestors, steps)
        memo[counter_address] = entry
    return entry


def _flush_tree(
    controller,
    pending: Dict[int, SplitCounterBlock],
    packed: Optional[Dict[int, int]] = None,
) -> None:
    """Propagate deferred tree updates for every dirtied counter block.

    Scalar eager mode re-hashes the whole ancestor path on *every*
    write; within a batched window those intermediate hashes are
    unobservable (nothing verifies against a cached node until a miss,
    and misses flush first), so one bottom-up propagation at the window
    boundary lands the identical final state: ``set_child_hash`` is
    last-writer-wins per (node, slot), and propagating level by level —
    every dirty counter hashed once, then every touched parent hashed
    once from its *current* bytes, and so on to the root — re-hashes
    each shared ancestor exactly once while still running strictly
    after all its children's slot updates.  ``packed`` (the engine's
    incremental serialization cache) supplies counter bytes without a
    64-field repack when available.
    """
    engine = controller.engine
    block_hash = engine.block_hash
    root_node = engine.root_node
    sa = controller.merkle_cache.cache
    m_index = sa._index
    m_payloads = sa._payloads
    path_memo = controller._batch_path_memo
    #: parent address -> remaining bottom-up steps from that parent.
    frontier: Dict[int, tuple] = {}
    for counter_address, block in pending.items():
        steps = path_memo[counter_address][1]
        parent_address, child_slot = steps[0]
        word = packed.get(counter_address) if packed is not None else None
        child_bytes = (
            word.to_bytes(BLOCK_SIZE, "little")
            if word is not None
            else block.to_bytes()
        )
        child_hash = block_hash(child_bytes)
        if parent_address is None:
            root_node.set_child_hash(child_slot, child_hash)
        else:
            node = m_payloads[m_index[parent_address]]
            node.set_child_hash(child_slot, child_hash)
            frontier[parent_address] = steps[1:]
    while frontier:
        upper: Dict[int, tuple] = {}
        for address, steps in frontier.items():
            node = m_payloads[m_index[address]]
            child_hash = block_hash(node.to_bytes())
            parent_address, child_slot = steps[0]
            if parent_address is None:
                root_node.set_child_hash(child_slot, child_hash)
            else:
                parent = m_payloads[m_index[parent_address]]
                parent.set_child_hash(child_slot, child_hash)
                upper[parent_address] = steps[1:]
        frontier = upper
    pending.clear()


def run_batched_range(
    controller,
    columns,
    start: int,
    stop: int,
    shadow: Dict[int, bytes],
) -> None:
    """Replay ``columns[start:stop)`` through ``controller``, batched.

    The caller (``replay_batched``) guarantees :func:`batch_supported`
    returned True.  ``shadow`` receives every write's plaintext exactly
    as scalar replay records it.
    """
    import numpy as np

    layout = controller.layout
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
    counter_meta = controller.counter_cache
    counter_sa = counter_meta.cache
    c_index = counter_sa._index
    c_payloads = counter_sa._payloads
    c_dirty = counter_sa._dirty
    c_stamps = counter_sa._stamps
    merkle_meta = controller.merkle_cache
    merkle_sa = merkle_meta.cache
    m_index = merkle_sa._index
    m_dirty = merkle_sa._dirty
    m_stamps = merkle_sa._stamps
    evictions = controller._evictions
    eager = controller.eager
    scheme = controller.scheme
    selective = scheme == SchemeKind.SELECTIVE
    selective_boundary = controller._selective_boundary
    use_stop_loss = controller._use_stop_loss
    stop_loss = controller.stop_loss
    encryption = controller.config.encryption
    phase_recovery = encryption.counter_recovery == CounterRecoveryKind.PHASE
    phase_mask = mask(encryption.phase_bits) if phase_recovery else 0
    # The controller's own pre-keyed digests: data MAC, line pad and
    # sideband pad, bit-identical to the scalar seal's.
    data_mac = controller._data_mac.value
    line_pad = controller.ctr_engine.line_pad.value
    side_pad = controller.ctr_engine._ecc_pad_hash(SIDEBAND_BYTES).value
    int_from = int.from_bytes
    encode_line = controller.ecc_codec.encode_line
    encode_lines = controller.ecc_codec.encode_lines
    real_read = controller.read
    real_write = controller.write
    path_memo = getattr(controller, "_batch_path_memo", None)
    if path_memo is None:
        path_memo = controller._batch_path_memo = {}
    minor_bits = SplitCounterBlock.minor_bits

    # Dispatch AGIT dirty hooks only when actually overridden.
    counter_hook = (
        controller._on_counter_dirtied
        if type(controller)._on_counter_dirtied
        is not BonsaiController._on_counter_dirtied
        else None
    )
    merkle_hook = (
        controller._on_merkle_dirtied
        if type(controller)._on_merkle_dirtied
        is not BonsaiController._on_merkle_dirtied
        else None
    )

    #: counter address -> live block, for deferred tree propagation.
    pending_tree: Dict[int, SplitCounterBlock] = {}
    #: counter address -> packed 512-bit serialization of the block's
    #: *current* state.  The fast path owns every mutation between
    #: fallbacks, so each write updates the word with one shifted add
    #: (a minor bump never carries across its 7-bit field) instead of
    #: re-packing 64 fields per persist; invalidated wholesale at every
    #: real call, which may mutate blocks behind it.
    packed: Dict[int, int] = {}

    # Window tallies, added to the components' counters once on exit.
    t_data_reads = 0
    t_data_writes = 0
    t_integrity = 0
    t_persist = 0
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

    # Channel and LRU clocks live in locals inside the loop; they sync
    # back to their objects around every real (scalar-fallback) call
    # and on exit.  ``locals_live`` guards the final sync: when an
    # exception escapes a real call the objects are already current and
    # the locals are stale.
    ch_now = channel.now
    ch_busy = channel.busy_until
    c_clock = counter_sa._clock
    m_clock = merkle_sa._clock
    locals_live = True

    # A write mid-stage would make the inline commit diverge from
    # pregs semantics; it cannot happen between accesses (begin/commit
    # and abort are paired), so refuse the whole window if it somehow
    # is the case and let scalar raise the scheme's own error.
    fast_writes_ok = not controller.pregs._open

    try:
        position = start
        while position < stop:
            end = min(position + DEFAULT_CHUNK, stop)
            count = end - position
            address_col = columns.addresses[position:end]
            valid_col, caddr_col, cslot_col, cindex_col = (
                layout.decompose_batch(address_col)
            )
            resident_col = counter_meta.classify_chunk(caddr_col)
            write_col = columns.is_write[position:end]

            addresses = address_col.tolist()
            writes = write_col.tolist()
            gaps = columns.gaps[position:end].tolist()
            valid = valid_col.tolist()
            caddrs = caddr_col.tolist()
            cslots = cslot_col.tolist()
            cindices = cindex_col.tolist()
            data = columns.data

            # Vectorized SECDED precompute for predicted fast writes.
            ecc_codes: List[Optional[bytes]] = [None] * count
            if fast_writes_ok:
                candidates = np.flatnonzero(
                    write_col & valid_col & resident_col
                ).tolist()
                gather = []
                kept = []
                for j in candidates:
                    blob = data[position + j]
                    if blob is not None and len(blob) == BLOCK_SIZE:
                        gather.append(blob)
                        kept.append(j)
                if gather:
                    for j, code in zip(kept, encode_lines(gather)):
                        ecc_codes[j] = code

            for j in range(count):
                address = addresses[j]
                # access(): advance, then opportunistic drain — inlined
                # (the whole backlog drains; each entry is one NVM
                # write plus posted channel occupancy).
                ch_now += gaps[j]
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

                if not writes[j]:
                    # ---------------- read ----------------
                    slot_index = (
                        c_index.get(caddrs[j])
                        if valid[j] and not evictions
                        else None
                    )
                    if slot_index is None:
                        if pending_tree:
                            _flush_tree(controller, pending_tree, packed)
                        channel.now = ch_now
                        channel.busy_until = ch_busy
                        counter_sa._clock = c_clock
                        merkle_sa._clock = m_clock
                        locals_live = False
                        real_read(address)
                        ch_now = channel.now
                        ch_busy = channel.busy_until
                        c_clock = counter_sa._clock
                        m_clock = merkle_sa._clock
                        locals_live = True
                        if packed:
                            packed.clear()
                        continue
                    t_data_reads += 1
                    # counter_cache.access() hit: LRU touch + tally.
                    t_counter_hits += 1
                    c_clock += 1
                    c_stamps[slot_index] = c_clock
                    minor = c_payloads[slot_index].minors[cslots[j]]
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
                        if minor:
                            raise IntegrityErrorAt(address)
                        continue  # architectural zeros, nothing to check
                    # hash_latency() for the data MAC, then open_data()
                    # — which deterministically succeeds in a clean
                    # window (see module docstring), so only its clock
                    # and counter effects are replayed.
                    ch_now += hash_ns
                    t_integrity += 1
                    continue

                # ---------------- write ----------------
                blob = data[position + j]
                slot_index = (
                    c_index.get(caddrs[j])
                    if (
                        fast_writes_ok
                        and valid[j]
                        and not evictions
                        and blob is not None
                        and len(blob) == BLOCK_SIZE
                    )
                    else None
                )
                fast = slot_index is not None
                if fast:
                    block = c_payloads[slot_index]
                    cslot = cslots[j]
                    minor = block.minors[cslot]
                    if minor >= _MINOR_MAX:
                        fast = False  # overflow: page re-encryption path
                    elif eager:
                        entry = path_memo.get(caddrs[j])
                        if entry is None:
                            entry = _tree_path(controller, caddrs[j])
                        ancestors = entry[0]
                        for ancestor in ancestors:
                            if ancestor not in m_index:
                                fast = False
                                break
                if not fast:
                    if pending_tree:
                        _flush_tree(controller, pending_tree, packed)
                    channel.now = ch_now
                    channel.busy_until = ch_busy
                    counter_sa._clock = c_clock
                    merkle_sa._clock = m_clock
                    locals_live = False
                    real_write(address, blob)
                    ch_now = channel.now
                    ch_busy = channel.busy_until
                    c_clock = counter_sa._clock
                    m_clock = merkle_sa._clock
                    locals_live = True
                    if packed:
                        packed.clear()
                    shadow[address] = blob
                    continue

                counter_address = caddrs[j]
                t_data_writes += 1
                # _get_counter_block() hit then mark_dirty(): two LRU
                # touches; only the second stamp survives, so bump the
                # clock by two and store once.
                t_counter_hits += 1
                c_clock += 2
                c_stamps[slot_index] = c_clock
                # block.increment(): no overflow by the guard above.
                new_minor = minor + 1
                block.minors[cslot] = new_minor
                word = packed.get(counter_address)
                if word is None:
                    word = block.major
                    shift = 64
                    for m in block.minors:
                        word |= m << shift
                        shift += minor_bits
                else:
                    word += 1 << (64 + minor_bits * cslot)
                packed[counter_address] = word
                first = not c_dirty[slot_index]
                if first:
                    c_dirty[slot_index] = True
                    t_counter_first += 1
                if counter_hook is not None:
                    counter_hook(slot_index, counter_address, first)

                if eager:
                    # _eager_update_ancestors(), hash math deferred: per
                    # level one access() hit touch + one mark_dirty().
                    for ancestor in ancestors:
                        merkle_slot = m_index[ancestor]
                        t_merkle_hits += 1
                        m_clock += 2
                        m_stamps[merkle_slot] = m_clock
                        merkle_first = not m_dirty[merkle_slot]
                        if merkle_first:
                            m_dirty[merkle_slot] = True
                            t_merkle_first += 1
                        if merkle_hook is not None:
                            merkle_hook(merkle_slot, ancestor, merkle_first)
                    pending_tree[counter_address] = block

                # seal_data(), inlined: SECDED (precomputed when
                # predicted), keyed MAC, counter-mode pads straight from
                # BLAKE2b (bypassing the pad memo — the tuple is fresh,
                # so a memo round-trip is pure overhead), optional phase
                # byte.  Bit-for-bit the scalar seal.
                ecc = ecc_codes[j]
                if ecc is None:
                    ecc = encode_line(blob)
                major = block.major
                iv = (
                    address.to_bytes(8, "little")
                    + major.to_bytes(8, "little")
                    + new_minor.to_bytes(8, "little")
                )
                mac = data_mac(iv + blob)
                cipher = (int_from(blob, "little") ^ line_pad(iv)).to_bytes(
                    BLOCK_SIZE, "little"
                )
                sideband = (
                    int_from(ecc + mac.to_bytes(8, "little"), "little")
                    ^ side_pad(b"ecc" + iv)
                ).to_bytes(SIDEBAND_BYTES, "little")
                if phase_recovery:
                    sideband += bytes([new_minor & phase_mask])

                # pregs.begin()/stage()/commit() reduces to in-order WPQ
                # inserts of the staged group (data line first, then the
                # counter block when the scheme persists it).  The queue
                # is empty or holds at most this access's entries, so no
                # coalesce and no overflow drain (capacity >= 2 checked
                # by batch_supported).
                pending[address] = (cipher, sideband)
                t_wpq_inserts += 1
                pushed = 1
                if selective:
                    if cindices[j] < selective_boundary:
                        pending[counter_address] = (
                            word.to_bytes(BLOCK_SIZE, "little"),
                            None,
                        )
                        t_wpq_inserts += 1
                        pushed = 2
                elif use_stop_loss and new_minor % stop_loss == 0:
                    pending[counter_address] = (
                        word.to_bytes(BLOCK_SIZE, "little"),
                        None,
                    )
                    t_wpq_inserts += 1
                    pushed = 2
                t_persist += pushed
                shadow[address] = blob

            position = end
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
            counter_sa._clock = c_clock
            merkle_sa._clock = m_clock
        if pending_tree:
            _flush_tree(controller, pending_tree, packed)
        controller.data_reads += t_data_reads
        controller.data_writes += t_data_writes
        controller.integrity_checks += t_integrity
        controller.persist_writes += t_persist
        channel.reads += t_channel_reads
        channel.writes += t_channel_writes
        nvm.reads += t_nvm_reads
        nvm.writes += t_nvm_writes
        wpq.inserts += t_wpq_inserts
        wpq.drains += t_wpq_drains
        counter_meta.hits += t_counter_hits
        counter_meta.first_dirty += t_counter_first
        merkle_meta.hits += t_merkle_hits
        merkle_meta.first_dirty += t_merkle_first


class IntegrityErrorAt(Exception):
    """Internal marker: a fast-path read hit the lost-write invariant.

    Converted to the scalar path's exact :class:`~repro.errors.
    IntegrityError` after deferred state is flushed, so post-mortem
    controller state matches a scalar run that raised at the same
    access.
    """

    def __init__(self, address: int) -> None:
        super().__init__(address)
        self.address = address
