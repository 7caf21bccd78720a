"""Statistics-bearing wrapper around the set-associative cache.

The secure memory controllers use one :class:`MetadataCache` per metadata
stream: a counter cache and a Merkle-tree cache for Bonsai systems, or a
single combined metadata cache for SGX-style systems (§4.3).  The wrapper
adds exactly the accounting the paper's figures need — hit/miss counts
and the clean-vs-dirty eviction split of Fig. 7.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.cache.sa_cache import Eviction, SetAssociativeCache
from repro.config import CacheConfig
from repro.telemetry.runtime import live_tracer
from repro.util.stats import StatGroup


class MetadataCache:
    """A counter / Merkle-tree / combined metadata cache with stats."""

    def __init__(self, config: CacheConfig, name: str) -> None:
        self.cache = SetAssociativeCache(config, name)
        self.name = name
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
    # access paths (controllers call these; they only do accounting and
    # delegate the mechanics to the underlying cache)
    # ------------------------------------------------------------------

    def access(self, address: int) -> Optional[Any]:
        """Lookup with hit/miss accounting; payload or None."""
        payload = self.cache.lookup(address)
        if payload is None:
            self.misses += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "cache.miss", cache=self.name, address=address
                )
        else:
            self.hits += 1
            # Hits dominate every trace; emit them only at detail level
            # so default traces (and enabled-mode overhead) stay bounded.
            if self.tracer.enabled and self.tracer.detail:
                self.tracer.emit(
                    "cache.hit", cache=self.name, address=address
                )
        return payload

    def fill(
        self, address: int, payload: Any, dirty: bool = False
    ) -> Tuple[int, Optional[Eviction]]:
        """Insert after a miss; accounts the eviction split of Fig. 7."""
        slot, eviction = self.cache.insert(address, payload, dirty)
        if eviction is not None:
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
        return slot, eviction

    def mark_dirty(self, address: int) -> bool:
        """Dirty a resident block; counts and returns first-dirty events."""
        first = self.cache.mark_dirty(address)
        if first:
            self.first_dirty += 1
        return first

    # thin delegations -------------------------------------------------

    def peek(self, address: int) -> Optional[Any]:
        """Payload without LRU/stat side effects."""
        return self.cache.peek(address)

    def contains(self, address: int) -> bool:
        """Residency check without side effects."""
        return self.cache.contains(address)

    def slot_of(self, address: int) -> Optional[int]:
        """Fixed slot number of a resident block."""
        return self.cache.slot_of(address)

    def is_dirty(self, address: int) -> bool:
        """Dirty check without side effects."""
        return self.cache.is_dirty(address)

    def clean(self, address: int) -> None:
        """Clear a block's dirty bit after write-back."""
        self.cache.clean(address)

    def resident(self):
        """Iterate ``(slot, address, payload, dirty)`` over valid lines."""
        return self.cache.resident()

    def flush(self):
        """Invalidate everything, returning eviction records."""
        return self.cache.flush()

    def drop_all_volatile(self) -> None:
        """Crash: lose all content."""
        self.cache.drop_all_volatile()

    @property
    def num_slots(self) -> int:
        """Total slot count (sizes the matching shadow table)."""
        return self.cache.num_slots

    @property
    def occupancy(self) -> int:
        """Valid-line count."""
        return self.cache.occupancy

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------

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
            f"MetadataCache({self.name}: hit_rate={self.hit_rate:.2%}, "
            f"occupancy={self.occupancy}/{self.num_slots})"
        )
