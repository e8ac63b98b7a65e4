"""Tests for the functional set-associative cache model."""

import dataclasses

import pytest

from repro.cache import CacheBlock, SetAssociativeCache
from repro.cache.cache import BlockColumns
from repro.config import CacheLevelConfig, ReplacementPolicyName, paper_l2_config
from repro.core import build_protected_cache
from repro.errors import CacheError
from repro.sim import run_l2_trace, soa
from repro.telemetry import MemorySink, telemetry
from repro.workloads import generate_l2_trace, get_profile


def small_cache(associativity=4, sets=8, block=64, replacement=ReplacementPolicyName.LRU):
    config = CacheLevelConfig(
        name="test",
        size_bytes=sets * associativity * block,
        associativity=associativity,
        block_size_bytes=block,
        replacement=replacement,
    )
    return SetAssociativeCache(config)


def address_for(cache, tag, index):
    return cache.mapper.compose(tag, index)


class TestBasicAccess:
    def test_first_access_misses_and_fills(self):
        cache = small_cache()
        result = cache.access(0x1000, is_write=False, fill_ones_count=100)
        assert not result.hit
        assert result.filled
        assert cache.stats.read_misses == 1
        assert cache.occupancy() == 1

    def test_second_access_hits(self):
        cache = small_cache()
        cache.access(0x1000, is_write=False)
        result = cache.access(0x1000, is_write=False)
        assert result.hit
        assert cache.stats.read_hits == 1

    def test_different_offsets_same_block_hit(self):
        cache = small_cache()
        cache.access(0x1000, is_write=False)
        assert cache.access(0x103F, is_write=False).hit

    def test_write_miss_allocates_and_dirties(self):
        cache = small_cache()
        result = cache.access(0x2000, is_write=True, fill_ones_count=50)
        assert not result.hit and result.filled
        block = cache.blocks_in_set(result.set_index)[result.way]
        assert block.dirty

    def test_write_hit_updates_ones(self):
        cache = small_cache()
        cache.access(0x2000, is_write=False, fill_ones_count=10)
        result = cache.access(0x2000, is_write=True, fill_ones_count=99)
        assert result.hit
        block = cache.blocks_in_set(result.set_index)[result.way]
        assert block.dirty and block.ones_count == 99

    def test_contains(self):
        cache = small_cache()
        cache.access(0x4000, is_write=False)
        assert cache.contains(0x4000)
        assert not cache.contains(0x8000_0000)


class TestEviction:
    def test_filling_a_set_beyond_capacity_evicts(self):
        cache = small_cache(associativity=2, sets=4)
        index = 3
        addresses = [address_for(cache, tag, index) for tag in (1, 2, 3)]
        cache.access(addresses[0], is_write=False)
        cache.access(addresses[1], is_write=False)
        result = cache.access(addresses[2], is_write=False)
        assert result.evicted is not None
        assert cache.stats.evictions == 1
        assert not cache.contains(addresses[0])

    def test_dirty_eviction_reported(self):
        cache = small_cache(associativity=1, sets=4)
        a = address_for(cache, 1, 0)
        b = address_for(cache, 2, 0)
        cache.access(a, is_write=True, fill_ones_count=5)
        result = cache.access(b, is_write=False)
        assert result.evicted is not None
        assert result.evicted.dirty
        assert cache.stats.dirty_evictions == 1

    def test_lru_eviction_order(self):
        cache = small_cache(associativity=2, sets=2)
        a = address_for(cache, 1, 0)
        b = address_for(cache, 2, 0)
        c = address_for(cache, 3, 0)
        cache.access(a, is_write=False)
        cache.access(b, is_write=False)
        cache.access(a, is_write=False)  # refresh a, so b is LRU
        cache.access(c, is_write=False)
        assert cache.contains(a)
        assert not cache.contains(b)

    def test_evicted_block_reports_exposure(self):
        cache = small_cache(associativity=1, sets=2)
        a = address_for(cache, 1, 0)
        b = address_for(cache, 2, 0)
        cache.access(a, is_write=False)
        cache.blocks_in_set(0)[0].record_concealed_read()
        result = cache.access(b, is_write=False)
        assert result.evicted.unchecked_reads == 1


class TestStatistics:
    def test_tag_comparisons_count_all_ways(self):
        cache = small_cache(associativity=4)
        cache.access(0x0, is_write=False)
        cache.access(0x40, is_write=False)
        assert cache.stats.tag_comparisons == 8

    def test_hit_and_miss_rates(self):
        cache = small_cache()
        cache.access(0x0, is_write=False)
        cache.access(0x0, is_write=False)
        cache.access(0x0, is_write=False)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        assert cache.stats.miss_rate == pytest.approx(1 / 3)

    def test_read_fraction(self):
        cache = small_cache()
        cache.access(0x0, is_write=False)
        cache.access(0x40, is_write=True)
        assert cache.stats.read_fraction == pytest.approx(0.5)

    def test_as_dict_contains_derived_metrics(self):
        cache = small_cache()
        cache.access(0x0, is_write=False)
        stats = cache.stats.as_dict()
        assert "hit_rate" in stats and "accesses" in stats

    def test_merge_sums_counters(self):
        a = small_cache()
        b = small_cache()
        a.access(0x0, is_write=False)
        b.access(0x0, is_write=True)
        merged = a.stats.merge(b.stats)
        assert merged.demand_reads == 1 and merged.demand_writes == 1


class TestMaintenance:
    def test_invalidate_all(self):
        cache = small_cache()
        cache.access(0x0, is_write=False)
        cache.access(0x1000, is_write=False)
        cache.invalidate_all()
        assert cache.occupancy() == 0

    def test_resident_blocks_lists_valid_only(self):
        cache = small_cache()
        cache.access(0x0, is_write=False)
        resident = cache.resident_blocks()
        assert len(resident) == 1
        set_index, way, block = resident[0]
        assert block.valid

    def test_bad_set_index_rejected(self):
        with pytest.raises(CacheError):
            small_cache().cache_set(10_000)


class TestColumnBackedState:
    def test_columns_follow_block_field_order(self):
        assert BlockColumns._fields == tuple(
            field.name for field in dataclasses.fields(CacheBlock)
        )

    def test_first_object_access_builds_blocks_from_columns(self):
        cache = small_cache()
        frame = 3 * cache.associativity + 2
        cache.columns.tag[frame] = 7
        cache.columns.valid[frame] = True
        cache.columns.total_reads[frame] = 5
        block = cache.blocks_in_set(3)[2]
        assert (block.tag, block.valid, block.total_reads) == (7, True, 5)
        assert cache.contains(address_for(cache, 7, 3))

    def test_queries_leave_a_fresh_cache_untouched(self):
        config = paper_l2_config()
        trace = generate_l2_trace(get_profile("gcc"), config, 2000, seed=1)

        def cold_replay(cache) -> str:
            sink = MemorySink()
            with telemetry(sink):
                run_l2_trace(cache, trace, engine="fast")
            (pass1,) = [e for e in sink.events if e["name"] == "kernel.pass1"]
            return pass1["memo"]

        soa.clear_kernel_memo()
        try:
            cache = build_protected_cache("reap", config, seed=1)
            assert not cache.cache.contains(0x1234)
            assert cache.cache.occupancy() == 0
            assert cache.cache.untouched()
            assert cold_replay(cache) == "miss"
            assert cold_replay(build_protected_cache("reap", config, seed=1)) == "hit"
        finally:
            soa.clear_kernel_memo()
