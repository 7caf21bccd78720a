"""Set-associative metadata cache with LRU replacement, fixed slots and
the counts the paper's figures read.

The secure memory controllers build one cache per metadata stream: a
counter cache and a Merkle-tree cache for Bonsai systems, or a single
combined metadata cache for SGX-style systems (§4.3).  Three properties
of this cache are load-bearing for Anubis:

* **Fixed slots** — a block keeps its (set, way) slot for its entire
  residency; LRU state lives in the tag array only (§4.1).  The slot
  number is what indexes the shadow tables (SCT/SMT/ST), so a shadow
  entry written at fill time still describes the right block at crash
  time.
* **Payload storage** — the cache holds the *live* metadata objects
  (counter blocks, tree nodes).  During normal operation the cached copy
  is the authority and the NVM copy may be stale; that gap is exactly
  the crash-consistency problem the paper solves.
* **Accounting** — :meth:`SetAssociativeCache.access` counts hits and
  misses, :meth:`~SetAssociativeCache.fill` splits its evictions into
  clean and dirty (the Fig. 7 metric), and
  :meth:`~SetAssociativeCache.mark_dirty` counts the first-dirty events
  that trigger AGIT-Plus tracking.  The same three operations emit the
  ``cache.miss``, ``cache.hit`` (detail level only) and ``cache.evict``
  telemetry events.

Slot state lives in four parallel lists indexed by slot (tag, payload,
dirty bit, LRU stamp) rather than one object per slot, so building a
cache is a few list allocations.  A slot is valid iff its stamp is
non-zero: every touch stamps a slot with the next value of a clock
that starts at 1, so valid stamps are unique and at least 1 and an
invalid slot reads 0.  The victim of a fill is then the first minimum
stamp of the set's segment — the first invalid way if there is one,
else the least recently used way.  :meth:`SetAssociativeCache.victim`
is that rule's one home: ``fill`` and the batch window's miss planners,
which overlay a walk's planned fills, all ask it.
"""

from __future__ import annotations

from typing import Any, Iterator, List, NamedTuple, Optional, Tuple

from repro.config import BLOCK_SIZE, CacheConfig
from repro.errors import ConfigError
from repro.telemetry.runtime import live_tracer
from repro.util.stats import StatGroup


class Eviction(NamedTuple):
    """Record of a victim pushed out by a fill."""

    address: int
    payload: Any
    dirty: bool
    slot: int


class SetAssociativeCache:
    """A write-back set-associative cache of 64B metadata blocks, with
    hit/miss, eviction and first-dirty counts.

    Addresses must be block-aligned; the set index is taken from the
    block-number bits.  All mutation methods return event records instead
    of invoking callbacks, so controllers keep linear control flow.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.ways
        slots = self.num_sets * self.ways
        #: Per-slot state, indexed by slot number (see module docstring).
        self._tags: List[int] = [0] * slots
        self._payloads: List[Any] = [None] * slots
        self._dirty: List[bool] = [False] * slots
        self._stamps: List[int] = [0] * slots
        self._clock = 0
        #: address -> slot fast path (the tag array's CAM); kept exactly
        #: in sync with the slot arrays by every mutation below.
        self._index: dict = {}
        self.tracer = live_tracer()
        self.hits = 0
        self.misses = 0
        self.evictions_clean = 0
        self.evictions_dirty = 0
        self.first_dirty = 0

    @property
    def stats(self) -> StatGroup:
        """Read-only ``<name>.*`` view of the cache's counts."""
        return StatGroup(self.name, {
            "hits": self.hits,
            "misses": self.misses,
            "evictions_clean": self.evictions_clean,
            "evictions_dirty": self.evictions_dirty,
            "first_dirty": self.first_dirty,
        })

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def contains(self, address: int) -> bool:
        """Hit check without touching LRU state."""
        return address in self._index

    def peek(self, address: int) -> Optional[Any]:
        """Payload if resident, else None; does not touch LRU state."""
        slot = self._index.get(address)
        return self._payloads[slot] if slot is not None else None

    def access(self, address: int) -> Optional[Any]:
        """Payload if resident (refreshes LRU), else None; counts the hit
        or miss."""
        slot = self._index.get(address)
        if slot is None:
            self.misses += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "cache.miss", cache=self.name, address=address
                )
            return None
        self.hits += 1
        # Hits dominate every trace; emit them only at detail level so
        # default traces (and enabled-mode overhead) stay bounded.
        if self.tracer.enabled and self.tracer.detail:
            self.tracer.emit("cache.hit", cache=self.name, address=address)
        self._clock += 1
        self._stamps[slot] = self._clock
        return self._payloads[slot]

    def touch(self, address: int) -> Optional[Any]:
        """Payload if resident (refreshes LRU), else None; counts
        nothing: a re-check of a block whose miss is already counted."""
        slot = self._index.get(address)
        if slot is None:
            return None
        self._clock += 1
        self._stamps[slot] = self._clock
        return self._payloads[slot]

    def record_miss(self, address: int) -> None:
        """Count a miss the caller found in the index itself (a verify
        walk's fetched ancestor), with its ``cache.miss`` event."""
        self.misses += 1
        if self.tracer.enabled:
            self.tracer.emit("cache.miss", cache=self.name, address=address)

    def slot_of(self, address: int) -> Optional[int]:
        """Fixed slot number of a resident block (None on miss)."""
        return self._index.get(address)

    def is_dirty(self, address: int) -> bool:
        """True if the block is resident and dirty."""
        slot = self._index.get(address)
        return slot is not None and self._dirty[slot]

    def victim(
        self, address: int, planned: Optional[dict] = None
    ) -> Tuple[int, Optional[int]]:
        """The slot :meth:`fill` gives a non-resident ``address``, and
        the address that slot holds (None for an invalid way).

        This is the one replacement rule: the first minimum stamp of the
        set's segment, so the first invalid way if there is one, else
        the least recently used way.  ``planned`` maps slot -> ``(stamp,
        address)`` for fills a caller plans ahead of this one (a miss
        walk's earlier fills): they overlay the set as if made, and a
        planned slot's victim is its planned address.
        """
        ways = self.ways
        base = address // BLOCK_SIZE % self.num_sets * ways
        segment = self._stamps[base : base + ways]
        if planned:
            for slot, (stamp, _address) in planned.items():
                if base <= slot < base + ways:
                    segment[slot - base] = stamp
        way = segment.index(min(segment))
        slot = base + way
        if not segment[way]:
            return slot, None
        if planned and slot in planned:
            return slot, planned[slot][1]
        return slot, self._tags[slot]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def fill(
        self, address: int, payload: Any, dirty: bool = False
    ) -> Tuple[int, Optional[Eviction]]:
        """Fill ``address``; returns ``(slot, eviction)``.

        The slot is :meth:`victim`'s, and the eviction of a valid
        victim is counted clean or dirty.  Filling an already-resident
        address replaces its payload in place (no eviction).
        """
        index = self._index
        stamps = self._stamps
        slot = index.get(address)
        if slot is not None:
            self._payloads[slot] = payload
            if dirty:
                self._dirty[slot] = True
            self._clock += 1
            stamps[slot] = self._clock
            return slot, None

        if address % BLOCK_SIZE:
            raise ConfigError(
                f"cache address {address:#x} not block-aligned"
            )
        slot, victim = self.victim(address)
        eviction = None
        if victim is not None:
            eviction = self._release(slot)
            del index[eviction.address]
            if eviction.dirty:
                self.evictions_dirty += 1
            else:
                self.evictions_clean += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "cache.evict",
                    cache=self.name,
                    address=eviction.address,
                    dirty=eviction.dirty,
                )
        index[address] = slot
        self._clock += 1
        self._tags[slot] = address
        self._payloads[slot] = payload
        self._dirty[slot] = dirty
        stamps[slot] = self._clock
        return slot, eviction

    def mark_dirty(self, address: int) -> bool:
        """Set the dirty bit; returns and counts True iff this is the
        *first* time the resident block becomes dirty (the AGIT-Plus
        trigger)."""
        slot = self._index.get(address)
        if slot is None:
            raise ConfigError(
                f"mark_dirty on non-resident block {address:#x}"
            )
        first = not self._dirty[slot]
        if first:
            self.first_dirty += 1
        self._dirty[slot] = True
        self._clock += 1
        self._stamps[slot] = self._clock
        return first

    def clean(self, address: int) -> None:
        """Clear the dirty bit (block was written back)."""
        slot = self._index.get(address)
        if slot is not None:
            self._dirty[slot] = False

    def _release(self, slot: int) -> Eviction:
        """Invalidate one valid slot; returns its record (index untouched)."""
        eviction = Eviction(
            self._tags[slot], self._payloads[slot], self._dirty[slot], slot
        )
        self._stamps[slot] = 0
        self._dirty[slot] = False
        self._payloads[slot] = None
        return eviction

    def invalidate(self, address: int) -> Optional[Eviction]:
        """Drop a block without counting an eviction; returns its record
        if it was resident."""
        slot = self._index.pop(address, None)
        if slot is None:
            return None
        return self._release(slot)

    def drop_all_volatile(self) -> None:
        """Crash model: lose every line instantly, no writebacks."""
        slots = len(self._stamps)
        # In place: the batch replay engine holds these lists.
        self._stamps[:] = [0] * slots
        self._dirty[:] = [False] * slots
        self._payloads[:] = [None] * slots
        self._index.clear()

    # ------------------------------------------------------------------
    # iteration and derived metrics
    # ------------------------------------------------------------------

    def resident(self) -> Iterator[Tuple[int, int, Any, bool]]:
        """Iterate ``(slot, address, payload, dirty)`` over valid lines."""
        tags, payloads, dirty = self._tags, self._payloads, self._dirty
        for slot, stamp in enumerate(self._stamps):
            if stamp:
                yield slot, tags[slot], payloads[slot], dirty[slot]

    @property
    def occupancy(self) -> int:
        """Number of valid lines."""
        return len(self._index)

    @property
    def num_slots(self) -> int:
        """Total slots (= shadow-table entries needed to track it)."""
        return len(self._stamps)

    @property
    def hit_rate(self) -> float:
        """Hits / accesses (0.0 before any access)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def clean_eviction_fraction(self) -> float:
        """Fraction of evictions that were clean — the Fig. 7 metric."""
        total = self.evictions_clean + self.evictions_dirty
        return self.evictions_clean / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.name}: {self.num_sets}x{self.ways}, "
            f"hit_rate={self.hit_rate:.2%}, occupancy={self.occupancy})"
        )
