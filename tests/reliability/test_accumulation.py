"""Tests for accumulation tracking and the Fig. 3 histogram."""

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.reliability import AccumulationTracker, ConcealedReadHistogram


def tracker_with(samples):
    tracker = AccumulationTracker()
    for concealed, ones in samples:
        tracker.record(concealed, ones)
    return tracker


class TestAccumulationTracker:
    def test_empty_tracker(self):
        tracker = AccumulationTracker()
        assert len(tracker) == 0
        assert tracker.max_concealed_reads == 0
        assert tracker.mean_concealed_reads == 0.0

    def test_record_and_summaries(self):
        tracker = tracker_with([(0, 100), (10, 100), (50, 100)])
        assert len(tracker) == 3
        assert tracker.max_concealed_reads == 50
        assert tracker.mean_concealed_reads == pytest.approx(20.0)

    def test_counts_and_ones_aligned(self):
        tracker = tracker_with([(3, 90), (7, 110)])
        assert list(tracker.counts()) == [3, 7]
        assert list(tracker.ones()) == [90, 110]

    def test_rejects_negative_values(self):
        with pytest.raises(ConfigurationError):
            AccumulationTracker().record(-1, 100)
        with pytest.raises(ConfigurationError):
            AccumulationTracker().record(1, -100)


class TestConcealedReadHistogram:
    def test_rejects_empty_tracker(self):
        with pytest.raises(AnalysisError):
            ConcealedReadHistogram(AccumulationTracker(), p_cell=1e-8)

    def test_normalisation_to_zero_concealed_bucket(self):
        """The paper normalises frequencies to the zero-concealed-read count."""
        tracker = tracker_with([(0, 100)] * 100 + [(35, 100)] * 3)
        histogram = ConcealedReadHistogram(tracker, p_cell=1e-8)
        bins = histogram.bins()
        zero_bin = min(bins, key=lambda b: b.concealed_reads)
        assert zero_bin.normalized_frequency == pytest.approx(100.0)
        point = max(bins, key=lambda b: b.concealed_reads)
        assert point.normalized_frequency == pytest.approx(3.0)

    def test_failure_rate_dominated_by_large_counts(self):
        """Rare high-count accesses dominate the failure rate (the paper's
        central observation in Section III)."""
        tracker = tracker_with([(0, 100)] * 10_000 + [(5_000, 100)] * 5)
        histogram = ConcealedReadHistogram(tracker, p_cell=1e-8)
        dominant = histogram.dominant_bin()
        assert dominant.concealed_reads > 1_000
        assert histogram.tail_dominance_ratio() > 0.9

    def test_total_failure_rate_is_sum_of_per_access(self):
        tracker = tracker_with([(0, 100), (10, 100), (100, 100)])
        histogram = ConcealedReadHistogram(tracker, p_cell=1e-6)
        per_access = histogram.per_access_failure_probabilities()
        assert histogram.total_failure_rate() == pytest.approx(per_access.sum())

    def test_zero_ones_blocks_never_fail(self):
        tracker = tracker_with([(100, 0), (1000, 0)])
        histogram = ConcealedReadHistogram(tracker, p_cell=1e-6)
        assert histogram.total_failure_rate() == 0.0

    def test_bins_cover_all_accesses(self):
        tracker = tracker_with([(i, 100) for i in range(0, 500, 7)])
        histogram = ConcealedReadHistogram(tracker, p_cell=1e-8, num_bins=10)
        assert sum(b.accesses for b in histogram.bins()) == len(tracker)

    def test_small_range_uses_exact_bins(self):
        tracker = tracker_with([(0, 100), (1, 100), (2, 100), (2, 100)])
        histogram = ConcealedReadHistogram(tracker, p_cell=1e-8, num_bins=40)
        bins = histogram.bins()
        assert len(bins) == 3
        assert bins[-1].accesses == 2

    def test_rejects_bad_parameters(self):
        tracker = tracker_with([(0, 100)])
        with pytest.raises(ConfigurationError):
            ConcealedReadHistogram(tracker, p_cell=2.0)
        with pytest.raises(ConfigurationError):
            ConcealedReadHistogram(tracker, p_cell=1e-8, num_bins=0)
        with pytest.raises(ConfigurationError):
            ConcealedReadHistogram(tracker, p_cell=1e-8).tail_dominance_ratio(1.5)


class TestRecordSampleArrays:
    def test_matches_sequential_record(self):
        events = [(0, 100), (5, 90), (0, 110), (49, 100)]
        sequential = AccumulationTracker()
        for concealed, ones in events:
            sequential.record(concealed, ones)
        batched = AccumulationTracker()
        batched.record_sample_arrays(
            np.array([concealed for concealed, _ in events]),
            np.array([ones for _, ones in events]),
        )
        assert batched.samples == sequential.samples

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            AccumulationTracker().record_sample_arrays(np.array([1, 2]), np.array([100]))

    def test_rejects_negative_values(self):
        with pytest.raises(ConfigurationError):
            AccumulationTracker().record_sample_arrays(np.array([-1]), np.array([100]))
        with pytest.raises(ConfigurationError):
            AccumulationTracker().record_sample_arrays(np.array([1]), np.array([-100]))

    def test_empty_arrays_are_a_no_op(self):
        tracker = AccumulationTracker()
        tracker.record_sample_arrays(np.array([], dtype=np.int64), np.array([]))
        assert len(tracker) == 0
