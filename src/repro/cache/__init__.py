"""On-chip metadata caches (counter cache, Merkle-tree cache, combined)."""

from repro.cache.sa_cache import Eviction, SetAssociativeCache

__all__ = ["Eviction", "SetAssociativeCache"]
