"""Tests for the reliability engine (exposure -> failure probability)."""

import itertools
import math

import numpy as np
import pytest

from repro.cache import CacheBlock
from repro.core.engine import CONVENTIONAL, REAP, SERIAL, WRITEBACK, ReliabilityEngine
from repro.errors import ConfigurationError
from repro.reliability import (
    accumulated_failure_probability,
    block_failure_probability,
    reap_failure_probability,
)


def fresh_block(ones=100):
    block = CacheBlock()
    block.fill(tag=1, ones_count=ones)
    return block


class TestConstruction:
    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            ReliabilityEngine(p_cell=1.5)

    def test_tracking_can_be_disabled(self):
        engine = ReliabilityEngine(p_cell=1e-8, track_accumulation=False)
        assert engine.tracker is None


class TestConventionalDelivery:
    def test_matches_eq3(self):
        engine = ReliabilityEngine(p_cell=1e-8)
        block = fresh_block()
        for _ in range(49):
            engine.on_concealed_read(block)
        outcome = engine.on_delivery(block, CONVENTIONAL)
        assert outcome.concealed_reads == 49
        assert outcome.failure_probability == pytest.approx(
            accumulated_failure_probability(1e-8, 100, 50)
        )

    def test_no_concealed_reads_matches_eq2(self):
        engine = ReliabilityEngine(p_cell=1e-8)
        outcome = engine.on_delivery(fresh_block(), CONVENTIONAL)
        assert outcome.failure_probability == pytest.approx(
            block_failure_probability(1e-8, 100)
        )

    def test_expected_failures_accumulate(self):
        engine = ReliabilityEngine(p_cell=1e-6)
        for _ in range(10):
            engine.on_delivery(fresh_block(), CONVENTIONAL)
        assert engine.expected_failures == pytest.approx(
            10 * block_failure_probability(1e-6, 100)
        )

    def test_tracker_records_samples(self):
        engine = ReliabilityEngine(p_cell=1e-8)
        block = fresh_block()
        engine.on_concealed_read(block)
        engine.on_delivery(block, CONVENTIONAL)
        assert len(engine.tracker) == 1
        assert engine.tracker.samples[0].concealed_reads == 1

    def test_zero_ones_never_fails(self):
        engine = ReliabilityEngine(p_cell=1e-2)
        outcome = engine.on_delivery(fresh_block(ones=0), CONVENTIONAL)
        assert outcome.failure_probability == 0.0


class TestReapDelivery:
    def test_matches_eq6(self):
        engine = ReliabilityEngine(p_cell=1e-8)
        block = fresh_block()
        for _ in range(49):
            engine.on_scrub_read(block)
        outcome = engine.on_delivery(block, REAP)
        assert outcome.demand_window == 50
        assert outcome.failure_probability == pytest.approx(
            reap_failure_probability(1e-8, 100, 50)
        )

    def test_reap_delivery_beats_conventional(self):
        conventional = ReliabilityEngine(p_cell=1e-8)
        reap = ReliabilityEngine(p_cell=1e-8)
        block_a, block_b = fresh_block(), fresh_block()
        for _ in range(99):
            conventional.on_concealed_read(block_a)
            reap.on_scrub_read(block_b)
        failure_conventional = conventional.on_delivery(
            block_a, CONVENTIONAL
        ).failure_probability
        failure_reap = reap.on_delivery(block_b, REAP).failure_probability
        assert failure_reap < failure_conventional

    def test_scrub_reads_counted(self):
        engine = ReliabilityEngine(p_cell=1e-8)
        block = fresh_block()
        engine.on_scrub_read(block)
        assert engine.stats.scrub_events == 1


class TestSerialDelivery:
    def test_matches_eq2_regardless_of_history(self):
        engine = ReliabilityEngine(p_cell=1e-8)
        outcome = engine.on_delivery(fresh_block(), SERIAL)
        assert outcome.failure_probability == pytest.approx(
            block_failure_probability(1e-8, 100)
        )


class TestStatsBookkeeping:
    def test_max_and_mean_windows(self):
        engine = ReliabilityEngine(p_cell=1e-8)
        block = fresh_block()
        for _ in range(9):
            engine.on_concealed_read(block)
        engine.on_delivery(block, CONVENTIONAL)
        engine.on_delivery(fresh_block(), CONVENTIONAL)
        assert engine.stats.max_accumulated_reads == 10
        assert engine.stats.mean_accumulated_reads == pytest.approx((10 + 1) / 2)

    def test_memoisation_is_transparent(self):
        engine = ReliabilityEngine(p_cell=1e-8)
        first = engine.on_delivery(fresh_block(), CONVENTIONAL).failure_probability
        second = engine.on_delivery(fresh_block(), CONVENTIONAL).failure_probability
        assert first == second


def scalar_oracle(kind, ones, window, p_cell, lanes, correctable):
    """The closed forms and the lane rule, written out over the scalar functions."""
    if ones == 0:
        return 0.0
    if kind == WRITEBACK:  # the raw Eq. (3) tail, never lane-adjusted
        return accumulated_failure_probability(p_cell, ones, window, correctable)
    lane_ones = max(1, round(ones / lanes))
    if kind == CONVENTIONAL:
        per_lane = accumulated_failure_probability(
            p_cell, lane_ones, window, correctable
        )
        return min(1.0, lanes * per_lane)
    single = min(1.0, lanes * block_failure_probability(p_cell, lane_ones, correctable))
    if kind == SERIAL:
        return single
    if lanes == 1:
        return reap_failure_probability(p_cell, ones, window, correctable)
    return 1.0 if single >= 1.0 else -math.expm1(window * math.log1p(-single))


class TestFailureProbabilities:
    """The one probability function equals the scalar oracle exactly."""

    ONES = (0, 1, 2, 3, 5, 17, 50, 100, 255, 512)
    WINDOWS = (1, 2, 3, 10, 49, 50, 333, 5000)

    @pytest.mark.parametrize("p_cell", [1e-8, 3e-3])
    @pytest.mark.parametrize("lanes", [1, 2, 4])
    @pytest.mark.parametrize("correctable", [1, 2])
    def test_vectorised_equals_scalar_oracle(self, p_cell, lanes, correctable):
        engine = ReliabilityEngine(
            p_cell=p_cell, correctable_errors=correctable, interleaving_lanes=lanes
        )
        keys = list(
            itertools.product(
                (CONVENTIONAL, REAP, SERIAL, WRITEBACK), self.ONES, self.WINDOWS
            )
        )
        kinds, ones, windows = (np.array(column) for column in zip(*keys))
        vectorised = engine.failure_probabilities(kinds, ones, windows)
        for (kind, n, window), value in zip(keys, vectorised):
            expected = scalar_oracle(kind, n, window, p_cell, lanes, correctable)
            assert value == expected, (kind, n, window)
            assert engine.failure_probability(kind, n, window) == expected

    def test_saturated_reap_lane_is_certain_failure(self):
        engine = ReliabilityEngine(p_cell=0.5, interleaving_lanes=4)
        assert engine.failure_probability(REAP, 512, 3) == 1.0

    def test_empty_keys(self):
        engine = ReliabilityEngine(p_cell=1e-8)
        assert engine.failure_probabilities([], [], []).shape == (0,)
