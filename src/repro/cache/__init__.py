"""On-chip metadata caches (counter cache, Merkle-tree cache, combined)."""

from repro.cache.sa_cache import Eviction, SetAssociativeCache
from repro.cache.metadata_cache import MetadataCache

__all__ = ["Eviction", "SetAssociativeCache", "MetadataCache"]
