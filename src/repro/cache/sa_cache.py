"""Set-associative cache with LRU replacement and fixed-slot tracking.

Two properties of this cache are load-bearing for Anubis:

* **Fixed slots** — a block keeps its (set, way) slot for its entire
  residency; LRU state lives in the tag array only (§4.1).  The slot
  number is what indexes the shadow tables (SCT/SMT/ST), so a shadow
  entry written at fill time still describes the right block at crash
  time.
* **Payload storage** — the cache holds the *live* metadata objects
  (counter blocks, tree nodes).  During normal operation the cached copy
  is the authority and the NVM copy may be stale; that gap is exactly
  the crash-consistency problem the paper solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.config import CacheConfig
from repro.errors import ConfigError


@dataclass
class CacheLine:
    """One cache slot: tag/payload plus replacement and dirty state."""

    valid: bool = False
    address: int = 0
    payload: Any = None
    dirty: bool = False
    lru_stamp: int = 0


@dataclass(frozen=True)
class Eviction:
    """Record of a victim pushed out by a fill."""

    address: int
    payload: Any
    dirty: bool
    slot: int


class SetAssociativeCache:
    """A write-back set-associative cache of 64B metadata blocks.

    Addresses must be block-aligned; the set index is taken from the
    block-number bits.  All mutation methods return event records instead
    of invoking callbacks, so controllers keep linear control flow.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._lines: List[CacheLine] = [
            CacheLine() for _ in range(self.num_sets * self.ways)
        ]
        self._clock = 0
        #: address -> slot fast path (the tag array's CAM); kept exactly
        #: in sync with the line array by every mutation below.
        self._index: dict = {}

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------

    def _set_index(self, address: int) -> int:
        if address % self.config.block_size:
            raise ConfigError(
                f"cache address {address:#x} not block-aligned"
            )
        return (address // self.config.block_size) % self.num_sets

    def _find(self, address: int) -> Optional[int]:
        return self._index.get(address)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def contains(self, address: int) -> bool:
        """Hit check without touching LRU state."""
        return self._find(address) is not None

    def peek(self, address: int) -> Optional[Any]:
        """Payload if resident, else None; does not touch LRU state."""
        slot = self._find(address)
        return self._lines[slot].payload if slot is not None else None

    def lookup(self, address: int) -> Optional[Any]:
        """Payload if resident (refreshes LRU), else None."""
        slot = self._find(address)
        if slot is None:
            return None
        self._clock += 1
        self._lines[slot].lru_stamp = self._clock
        return self._lines[slot].payload

    def slot_of(self, address: int) -> Optional[int]:
        """Fixed slot number of a resident block (None on miss)."""
        return self._find(address)

    def is_dirty(self, address: int) -> bool:
        """True if the block is resident and dirty."""
        slot = self._find(address)
        return slot is not None and self._lines[slot].dirty

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(
        self, address: int, payload: Any, dirty: bool = False
    ) -> Tuple[int, Optional[Eviction]]:
        """Fill ``address``; returns ``(slot, eviction)``.

        The victim is an invalid way if one exists, else the LRU way.
        Filling an already-resident address replaces its payload in
        place (no eviction).
        """
        existing = self._find(address)
        if existing is not None:
            line = self._lines[existing]
            line.payload = payload
            line.dirty = line.dirty or dirty
            self._clock += 1
            line.lru_stamp = self._clock
            return existing, None

        base = self._set_index(address) * self.ways
        lines = self._lines
        victim_slot = base
        oldest_stamp: Optional[int] = None
        for slot in range(base, base + self.ways):
            line = lines[slot]
            if not line.valid:
                victim_slot = slot
                break
            if oldest_stamp is None or line.lru_stamp < oldest_stamp:
                victim_slot = slot
                oldest_stamp = line.lru_stamp

        line = lines[victim_slot]
        eviction = None
        if line.valid:
            eviction = Eviction(
                address=line.address,
                payload=line.payload,
                dirty=line.dirty,
                slot=victim_slot,
            )
            del self._index[line.address]
        self._index[address] = victim_slot
        self._clock += 1
        line.valid = True
        line.address = address
        line.payload = payload
        line.dirty = dirty
        line.lru_stamp = self._clock
        return victim_slot, eviction

    def mark_dirty(self, address: int) -> bool:
        """Set the dirty bit; returns True iff this is the *first* time
        the resident block becomes dirty (the AGIT-Plus trigger)."""
        slot = self._find(address)
        if slot is None:
            raise ConfigError(
                f"mark_dirty on non-resident block {address:#x}"
            )
        line = self._lines[slot]
        first = not line.dirty
        line.dirty = True
        self._clock += 1
        line.lru_stamp = self._clock
        return first

    def clean(self, address: int) -> None:
        """Clear the dirty bit (block was written back)."""
        slot = self._find(address)
        if slot is not None:
            self._lines[slot].dirty = False

    def invalidate(self, address: int) -> Optional[Eviction]:
        """Drop a block; returns its eviction record if it was resident."""
        slot = self._find(address)
        if slot is None:
            return None
        line = self._lines[slot]
        eviction = Eviction(
            address=line.address,
            payload=line.payload,
            dirty=line.dirty,
            slot=slot,
        )
        del self._index[line.address]
        line.valid = False
        line.dirty = False
        line.payload = None
        return eviction

    def flush(self) -> List[Eviction]:
        """Invalidate everything; returns records of all resident blocks."""
        evictions = []
        for slot, line in enumerate(self._lines):
            if line.valid:
                evictions.append(
                    Eviction(line.address, line.payload, line.dirty, slot)
                )
                line.valid = False
                line.dirty = False
                line.payload = None
        self._index.clear()
        return evictions

    def drop_all_volatile(self) -> None:
        """Crash model: lose every line instantly, no writebacks."""
        for line in self._lines:
            line.valid = False
            line.dirty = False
            line.payload = None
        self._index.clear()

    # ------------------------------------------------------------------
    # iteration / stats support
    # ------------------------------------------------------------------

    def resident(self) -> Iterator[Tuple[int, int, Any, bool]]:
        """Iterate ``(slot, address, payload, dirty)`` over valid lines."""
        for slot, line in enumerate(self._lines):
            if line.valid:
                yield slot, line.address, line.payload, line.dirty

    @property
    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(1 for line in self._lines if line.valid)

    @property
    def num_slots(self) -> int:
        """Total slots (= shadow-table entries needed to track it)."""
        return len(self._lines)

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.name}: {self.num_sets}x{self.ways}, "
            f"occupancy={self.occupancy})"
        )
