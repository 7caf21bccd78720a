"""Unit tests for the counting metadata cache wrapper."""

import pytest

from repro.cache.metadata_cache import MetadataCache
from repro.config import CacheConfig


def make_cache(ways=2, size_bytes=1024) -> MetadataCache:
    return MetadataCache(CacheConfig(size_bytes=size_bytes, ways=ways), "cc")


class TestHitMissAccounting:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.access(0) is None
        cache.fill(0, "x")
        assert cache.access(0) == "x"
        assert cache.misses == 1
        assert cache.hits == 1

    def test_hit_rate(self):
        cache = make_cache()
        cache.fill(0, "x")
        cache.access(0)
        cache.access(64)  # miss
        assert cache.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert make_cache().hit_rate == 0.0


class TestEvictionAccounting:
    def _fill_set(self, cache, count, dirty_first=False):
        stride = cache.cache.num_sets * 64
        for index in range(count):
            cache.fill(index * stride, index)
            if dirty_first and index == 0:
                cache.mark_dirty(0)

    def test_clean_eviction_counted(self):
        cache = make_cache(ways=1, size_bytes=64)
        self._fill_set(cache, 2)
        assert cache.evictions_clean == 1
        assert cache.evictions_dirty == 0

    def test_dirty_eviction_counted(self):
        cache = make_cache(ways=1, size_bytes=64)
        self._fill_set(cache, 2, dirty_first=True)
        assert cache.evictions_dirty == 1

    def test_clean_eviction_fraction(self):
        cache = make_cache(ways=1, size_bytes=64)
        self._fill_set(cache, 3, dirty_first=True)
        # evictions: first (dirty), second (clean)
        assert cache.clean_eviction_fraction == pytest.approx(0.5)

    def test_fraction_empty(self):
        assert make_cache().clean_eviction_fraction == 0.0


class TestFirstDirty:
    def test_first_dirty_counted_once(self):
        cache = make_cache()
        cache.fill(0, "x")
        assert cache.mark_dirty(0) is True
        assert cache.mark_dirty(0) is False
        assert cache.first_dirty == 1


class TestStatsView:
    def test_merge_into_yields_exactly_the_five_counts(self):
        cache = make_cache(ways=1, size_bytes=64)
        cache.access(0)  # miss
        cache.fill(0, "x")
        cache.mark_dirty(0)
        cache.access(0)  # hit
        cache.fill(64, "y")  # evicts the dirty line
        cache.fill(128, "z")  # evicts the clean one
        flat = {}
        cache.stats.merge_into(flat)
        assert flat == {
            "cc.evictions_clean": 1,
            "cc.evictions_dirty": 1,
            "cc.first_dirty": 1,
            "cc.hits": 1,
            "cc.misses": 1,
        }
        assert list(flat) == sorted(flat)


class TestDelegations:
    def test_peek_contains_slot(self):
        cache = make_cache()
        slot, _ = cache.fill(0, "x")
        assert cache.peek(0) == "x"
        assert cache.contains(0)
        assert cache.slot_of(0) == slot

    def test_drop_all_volatile(self):
        cache = make_cache()
        cache.fill(0, "x")
        cache.drop_all_volatile()
        assert cache.occupancy == 0

    def test_num_slots(self):
        assert make_cache(size_bytes=1024).num_slots == 16
