"""Unit and property tests for the set-associative metadata cache: slots,
LRU, dirty state and the hit/miss, eviction and first-dirty counts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.sa_cache import SetAssociativeCache
from repro.config import CacheConfig
from repro.errors import ConfigError


def make_cache(size_bytes=4096, ways=4) -> SetAssociativeCache:
    # 4096/64 = 64 blocks, 16 sets x 4 ways
    return SetAssociativeCache(CacheConfig(size_bytes=size_bytes, ways=ways))


class TestBasics:
    def test_miss_on_empty(self):
        cache = make_cache()
        assert cache.access(0) is None
        assert not cache.contains(0)
        assert (cache.hits, cache.misses) == (0, 1)

    def test_insert_then_hit(self):
        cache = make_cache()
        cache.fill(0, "payload")
        assert cache.access(0) == "payload"

    def test_insert_returns_slot(self):
        cache = make_cache()
        slot, eviction = cache.fill(0, "x")
        assert eviction is None
        assert 0 <= slot < cache.num_slots

    def test_touch_refreshes_lru_and_counts_nothing(self):
        cache = make_cache()
        cache.fill(0, "x")
        stamp = cache._stamps[cache.slot_of(0)]
        assert cache.touch(64) is None
        assert cache.touch(0) == "x"
        assert cache._stamps[cache.slot_of(0)] > stamp
        assert (cache.hits, cache.misses) == (0, 0)

    def test_record_miss_counts_without_touching(self):
        cache = make_cache()
        cache.fill(0, "x")
        stamps = list(cache._stamps)
        cache.record_miss(64)
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache._stamps == stamps and cache.peek(64) is None

    def test_peek_contains_slot(self):
        cache = make_cache()
        slot, _ = cache.fill(0, "x")
        assert cache.peek(0) == "x"
        assert cache.contains(0)
        assert cache.slot_of(0) == slot

    def test_num_slots(self):
        assert make_cache(size_bytes=1024, ways=2).num_slots == 16

    def test_misaligned_rejected(self):
        cache = make_cache()
        with pytest.raises(ConfigError):
            cache.fill(3, "x")

    def test_reinsert_replaces_payload_in_place(self):
        cache = make_cache()
        slot_a, _ = cache.fill(0, "a")
        slot_b, eviction = cache.fill(0, "b")
        assert slot_a == slot_b
        assert eviction is None
        assert cache.access(0) == "b"

    def test_occupancy(self):
        cache = make_cache()
        cache.fill(0, "x")
        cache.fill(64, "y")
        assert cache.occupancy == 2


class TestFixedSlots:
    def test_slot_stable_across_hits(self):
        # §4.1: "the position of the block in the counter cache remains
        # fixed for its lifetime in the cache".
        cache = make_cache()
        slot, _ = cache.fill(0, "x")
        for other in range(1, 4):
            cache.fill(other * 64 * cache.num_sets, str(other))
        cache.access(0)
        assert cache.slot_of(0) == slot

    def test_slot_reused_after_eviction(self):
        cache = make_cache(size_bytes=64 * 2, ways=1)  # 2 sets x 1 way
        slot, _ = cache.fill(0, "a")
        stride = 2 * 64
        _slot_b, eviction = cache.fill(stride, "b")  # same set, evicts a
        assert eviction is not None
        assert eviction.slot == slot


class TestLru:
    def same_set_addresses(self, cache, count):
        stride = cache.num_sets * 64
        return [index * stride for index in range(count)]

    def test_lru_victim_selection(self):
        cache = make_cache(size_bytes=4096, ways=4)
        addresses = self.same_set_addresses(cache, 5)
        for address in addresses[:4]:
            cache.fill(address, address)
        cache.access(addresses[0])  # refresh the oldest
        _slot, eviction = cache.fill(addresses[4], "new")
        assert eviction.address == addresses[1]

    def test_invalid_way_preferred_over_lru(self):
        cache = make_cache(ways=4)
        addresses = self.same_set_addresses(cache, 4)
        for address in addresses[:3]:
            cache.fill(address, address)
        _slot, eviction = cache.fill(addresses[3], "new")
        assert eviction is None

    def test_peek_does_not_refresh_lru(self):
        cache = make_cache(ways=2)
        addresses = self.same_set_addresses(cache, 3)
        cache.fill(addresses[0], "a")
        cache.fill(addresses[1], "b")
        cache.peek(addresses[0])  # must NOT refresh
        _slot, eviction = cache.fill(addresses[2], "c")
        assert eviction.address == addresses[0]


class TestDirtyState:
    def test_mark_dirty_first_time(self):
        cache = make_cache()
        cache.fill(0, "x")
        assert cache.mark_dirty(0) is True
        assert cache.mark_dirty(0) is False
        assert cache.is_dirty(0)

    def test_first_dirty_counted_once(self):
        cache = make_cache()
        cache.fill(0, "x")
        assert cache.mark_dirty(0) is True
        assert cache.mark_dirty(0) is False
        assert cache.first_dirty == 1

    def test_mark_dirty_missing_rejected(self):
        cache = make_cache()
        with pytest.raises(ConfigError):
            cache.mark_dirty(0)

    def test_clean_resets_dirty(self):
        cache = make_cache()
        cache.fill(0, "x")
        cache.mark_dirty(0)
        cache.clean(0)
        assert not cache.is_dirty(0)
        assert cache.mark_dirty(0) is True  # first-dirty fires again

    def test_eviction_carries_dirty_flag(self):
        cache = make_cache(size_bytes=64, ways=1)
        cache.fill(0, "a")
        cache.mark_dirty(0)
        _slot, eviction = cache.fill(64, "b")
        assert eviction.dirty
        assert eviction.payload == "a"


class TestInvalidateFlush:
    def test_invalidate_returns_record(self):
        cache = make_cache()
        cache.fill(0, "x")
        cache.mark_dirty(0)
        eviction = cache.invalidate(0)
        assert eviction.dirty
        assert not cache.contains(0)

    def test_invalidate_missing_returns_none(self):
        cache = make_cache()
        assert cache.invalidate(0) is None

    def test_drop_all_volatile(self):
        cache = make_cache()
        cache.fill(0, "a")
        cache.mark_dirty(0)
        cache.drop_all_volatile()
        assert cache.occupancy == 0
        assert not cache.contains(0)

    def test_drop_all_volatile_clean_line(self):
        cache = make_cache()
        cache.fill(0, "x")
        cache.drop_all_volatile()
        assert cache.occupancy == 0

    def test_resident_iterates_valid(self):
        cache = make_cache()
        cache.fill(0, "a")
        cache.fill(64, "b")
        cache.mark_dirty(64)
        resident = {address: dirty for _s, address, _p, dirty in cache.resident()}
        assert resident == {0: False, 64: True}


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
        stride = cache.num_sets * 64
        for index in range(count):
            cache.fill(index * stride, index)
            if dirty_first and index == 0:
                cache.mark_dirty(0)

    def test_clean_eviction_counted(self):
        cache = make_cache(size_bytes=64, ways=1)
        self._fill_set(cache, 2)
        assert cache.evictions_clean == 1
        assert cache.evictions_dirty == 0

    def test_dirty_eviction_counted(self):
        cache = make_cache(size_bytes=64, ways=1)
        self._fill_set(cache, 2, dirty_first=True)
        assert cache.evictions_dirty == 1

    def test_clean_eviction_fraction(self):
        cache = make_cache(size_bytes=64, ways=1)
        self._fill_set(cache, 3, dirty_first=True)
        # evictions: first (dirty), second (clean)
        assert cache.clean_eviction_fraction == pytest.approx(0.5)

    def test_fraction_empty(self):
        assert make_cache().clean_eviction_fraction == 0.0


class TestStatsView:
    def test_merge_into_yields_exactly_the_five_counts(self):
        cache = SetAssociativeCache(CacheConfig(size_bytes=64, ways=1), "cc")
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


class TestIndexConsistency:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["fill", "access", "invalidate", "dirty"]),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=200,
        )
    )
    def test_index_matches_linear_scan_property(self, operations):
        """The fast index must agree with a brute-force scan of the slot
        arrays, and every per-slot field must be consistent with the
        slot's validity."""
        cache = make_cache(size_bytes=1024, ways=2)  # 16 blocks, 8 sets
        for op, block in operations:
            address = block * 64
            if op == "fill":
                cache.fill(address, block)
            elif op == "access":
                cache.access(address)
            elif op == "invalidate":
                cache.invalidate(address)
            elif op == "dirty" and cache.contains(address):
                cache.mark_dirty(address)
            # invariant: index agrees with the slot arrays
            valid = 0
            stamps = []
            for slot, (address_, payload, dirty, stamp) in enumerate(
                zip(cache._tags, cache._payloads, cache._dirty, cache._stamps)
            ):
                if stamp:
                    valid += 1
                    stamps.append(stamp)
                    assert cache._index[address_] == slot
                    assert payload == address_ // 64
                    assert 1 <= stamp <= cache._clock
                else:
                    assert payload is None and not dirty
            assert len(stamps) == len(set(stamps))
            assert len(cache._index) == valid == cache.occupancy


class ReferenceLru:
    """Independent LRU model: per-set way lists, recency orders and the
    cache's five counts."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [[None] * ways for _ in range(num_sets)]
        self.recency = [[] for _ in range(num_sets)]  # least recent first
        self.counts = dict.fromkeys(
            ("hits", "misses", "evictions_clean", "evictions_dirty",
             "first_dirty"),
            0,
        )

    def _locate(self, address):
        index = (address // 64) % self.num_sets
        for way, entry in enumerate(self.sets[index]):
            if entry is not None and entry[0] == address:
                return index, way
        return index, None

    def _touch(self, index, way):
        if way in self.recency[index]:
            self.recency[index].remove(way)
        self.recency[index].append(way)

    def _record(self, index, way):
        address, payload, dirty = self.sets[index][way]
        return (address, payload, dirty, index * self.ways + way)

    def fill(self, address, payload, dirty):
        index, way = self._locate(address)
        if way is not None:
            entry = self.sets[index][way]
            entry[1] = payload
            entry[2] = entry[2] or dirty
            self._touch(index, way)
            return index * self.ways + way, None
        free = [w for w, e in enumerate(self.sets[index]) if e is None]
        eviction = None
        if free:
            way = free[0]
        else:
            way = self.recency[index][0]
            eviction = self._record(index, way)
            kind = "evictions_dirty" if eviction[2] else "evictions_clean"
            self.counts[kind] += 1
        self.sets[index][way] = [address, payload, dirty]
        self._touch(index, way)
        return index * self.ways + way, eviction

    def access(self, address):
        index, way = self._locate(address)
        if way is None:
            self.counts["misses"] += 1
            return None
        self.counts["hits"] += 1
        self._touch(index, way)
        return self.sets[index][way][1]

    def mark_dirty(self, address):
        index, way = self._locate(address)
        if way is None:
            raise ConfigError("not resident")
        first = not self.sets[index][way][2]
        self.counts["first_dirty"] += first
        self.sets[index][way][2] = True
        self._touch(index, way)
        return first

    def clean(self, address):
        index, way = self._locate(address)
        if way is not None:
            self.sets[index][way][2] = False

    def invalidate(self, address):
        index, way = self._locate(address)
        if way is None:
            return None
        record = self._record(index, way)
        self.sets[index][way] = None
        self.recency[index].remove(way)
        return record

    def resident(self):
        return [
            self._record(index, way)
            for index in range(self.num_sets)
            for way in range(self.ways)
            if self.sets[index][way] is not None
        ]

    def drop_all_volatile(self):
        self.sets = [[None] * self.ways for _ in range(self.num_sets)]
        self.recency = [[] for _ in range(self.num_sets)]


def _as_record(eviction):
    if eviction is None:
        return None
    return (eviction.address, eviction.payload, eviction.dirty, eviction.slot)


class TestAgainstReferenceLru:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(1024, 2), (1024, 4), (2048, 8)]),
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "fill",
                        "fill_dirty",
                        "access",
                        "mark_dirty",
                        "clean",
                        "invalidate",
                        "drop_all_volatile",
                    ]
                ),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=250,
        ),
    )
    def test_random_sequence_matches_reference(self, geometry, operations):
        size_bytes, ways = geometry
        cache = make_cache(size_bytes=size_bytes, ways=ways)
        model = ReferenceLru(cache.num_sets, ways)
        for step, (op, block) in enumerate(operations):
            address = block * 64
            payload = (block, step)
            if op in ("fill", "fill_dirty"):
                dirty = op == "fill_dirty"
                slot, eviction = cache.fill(address, payload, dirty)
                assert (slot, _as_record(eviction)) == model.fill(
                    address, payload, dirty
                )
            elif op == "access":
                assert cache.access(address) == model.access(address)
            elif op == "mark_dirty":
                if model._locate(address)[1] is None:
                    with pytest.raises(ConfigError):
                        cache.mark_dirty(address)
                else:
                    first = model.mark_dirty(address)
                    assert cache.mark_dirty(address) == first
            elif op == "clean":
                cache.clean(address)
                model.clean(address)
            elif op == "invalidate":
                record = model.invalidate(address)
                assert _as_record(cache.invalidate(address)) == record
            else:
                cache.drop_all_volatile()
                model.drop_all_volatile()
            resident = [
                (address_, payload_, dirty_, slot_)
                for slot_, address_, payload_, dirty_ in cache.resident()
            ]
            assert resident == model.resident()
            assert cache.occupancy == len(resident)
            assert cache.stats.as_dict() == {
                f"cache.{name}": count for name, count in model.counts.items()
            }
