"""Tests for the statistics containers."""

import numpy as np
import pytest

from repro.cache import CacheStatistics, ReliabilityStatistics


class TestCacheStatistics:
    def test_empty_rates_are_zero(self):
        stats = CacheStatistics()
        assert stats.hit_rate == 0.0
        assert stats.miss_rate == 0.0
        assert stats.read_fraction == 0.0
        assert stats.average_ways_read_per_read == 0.0
        assert stats.average_decodes_per_read == 0.0

    def test_derived_rates(self):
        stats = CacheStatistics(
            demand_reads=8,
            demand_writes=2,
            read_hits=6,
            read_misses=2,
            write_hits=1,
            write_misses=1,
            data_way_reads=64,
            ecc_decodes=8,
        )
        assert stats.accesses == 10
        assert stats.hits == 7
        assert stats.misses == 3
        assert stats.hit_rate == pytest.approx(0.7)
        assert stats.read_fraction == pytest.approx(0.8)
        assert stats.average_ways_read_per_read == pytest.approx(8.0)
        assert stats.average_decodes_per_read == pytest.approx(1.0)

    def test_merge(self):
        a = CacheStatistics(demand_reads=3, read_hits=2)
        b = CacheStatistics(demand_reads=1, read_hits=1, demand_writes=4)
        merged = a.merge(b)
        assert merged.demand_reads == 4
        assert merged.read_hits == 3
        assert merged.demand_writes == 4
        # Originals untouched.
        assert a.demand_reads == 3

    def test_as_dict_includes_raw_and_derived(self):
        data = CacheStatistics(demand_reads=1, read_hits=1).as_dict()
        assert data["demand_reads"] == 1
        assert data["hit_rate"] == 1.0


class TestReliabilityStatistics:
    def test_record_check(self):
        stats = ReliabilityStatistics()
        stats.record_check(exposure=10, failure_probability=1e-9)
        stats.record_check(exposure=2, failure_probability=3e-9)
        assert stats.checked_reads == 2
        assert stats.max_accumulated_reads == 10
        assert stats.mean_accumulated_reads == pytest.approx(6.0)
        assert stats.expected_failures == pytest.approx(4e-9)
        assert stats.failure_probability_per_check == pytest.approx(2e-9)

    def test_record_concealed(self):
        stats = ReliabilityStatistics()
        stats.record_concealed()
        stats.record_concealed(5)
        assert stats.concealed_reads == 6

    def test_empty_means_are_zero(self):
        stats = ReliabilityStatistics()
        assert stats.mean_accumulated_reads == 0.0
        assert stats.failure_probability_per_check == 0.0

    def test_as_dict(self):
        stats = ReliabilityStatistics()
        stats.record_check(1, 0.0)
        data = stats.as_dict()
        assert data["checked_reads"] == 1
        assert "mean_accumulated_reads" in data


class TestRecordCheckArray:
    def test_matches_sequential_record_check(self):
        events = [(1, 5.0e-13), (3, 1.2e-10), (1, 5.0e-13), (50, 1.3e-9)]
        sequential = ReliabilityStatistics()
        for exposure, probability in events:
            sequential.record_check(exposure, probability)
        batched = ReliabilityStatistics()
        batched.record_check_array(
            np.array([exposure for exposure, _ in events]),
            np.array([probability for _, probability in events]),
        )
        assert vars(batched) == vars(sequential)

    def test_empty_arrays_are_a_no_op(self):
        stats = ReliabilityStatistics()
        stats.record_check_array(np.array([], dtype=np.int64), np.array([]))
        assert stats.checked_reads == 0
        assert stats.expected_failures == 0.0
        assert stats.max_accumulated_reads == 0

    def test_arrays_continue_existing_totals(self):
        stats = ReliabilityStatistics()
        stats.record_check(7, 1e-10)
        stats.record_check_array(np.array([2, 3]), np.array([1e-11, 1e-12]))
        sequential = ReliabilityStatistics()
        for exposure, probability in ((7, 1e-10), (2, 1e-11), (3, 1e-12)):
            sequential.record_check(exposure, probability)
        assert stats.checked_reads == 3
        assert stats.accumulated_reads_sum == 12
        assert stats.max_accumulated_reads == 7
        assert vars(stats) == vars(sequential)
