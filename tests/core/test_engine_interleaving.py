"""Tests for the interleaving-lane-aware failure model in the engine."""

import pytest

from repro.cache import CacheBlock
from repro.config import CacheLevelConfig, ECCConfig, ECCKind
from repro.core import DataValueProfile, ProtectionScheme, build_protected_cache
from repro.core.engine import CONVENTIONAL, REAP, ReliabilityEngine
from repro.errors import ConfigurationError


def fresh_block(ones=100):
    block = CacheBlock()
    block.fill(tag=1, ones_count=ones)
    return block


class TestLaneAwareEngine:
    def test_rejects_bad_lane_count(self):
        with pytest.raises(ConfigurationError):
            ReliabilityEngine(p_cell=1e-8, interleaving_lanes=0)

    def test_single_lane_matches_default(self):
        plain = ReliabilityEngine(p_cell=1e-8)
        one_lane = ReliabilityEngine(p_cell=1e-8, interleaving_lanes=1)
        a = plain.on_delivery(fresh_block(), CONVENTIONAL).failure_probability
        b = one_lane.on_delivery(fresh_block(), CONVENTIONAL).failure_probability
        assert a == pytest.approx(b)

    def test_more_lanes_lower_failure(self):
        """Spreading a block over independent codewords makes a double error
        within one codeword less likely (union bound over lanes)."""
        results = []
        for lanes in (1, 2, 4):
            engine = ReliabilityEngine(p_cell=1e-8, interleaving_lanes=lanes)
            block = fresh_block()
            for _ in range(49):
                engine.on_concealed_read(block)
            results.append(engine.on_delivery(block, CONVENTIONAL).failure_probability)
        assert results[0] > results[1] > results[2]
        # Four lanes cut the same-codeword pairing chance roughly four-fold.
        assert results[0] / results[2] == pytest.approx(4.0, rel=0.15)

    def test_reap_delivery_with_lanes(self):
        engine = ReliabilityEngine(p_cell=1e-8, interleaving_lanes=4)
        block = fresh_block()
        for _ in range(9):
            engine.on_scrub_read(block)
        outcome = engine.on_delivery(block, REAP)
        assert 0.0 < outcome.failure_probability < 1.0


class TestInterleavedProtectedCache:
    def _build(self, kind, degree=1, scheme=ProtectionScheme.CONVENTIONAL):
        config = CacheLevelConfig(
            name="L2",
            size_bytes=64 * 1024,
            associativity=8,
            block_size_bytes=64,
            technology="stt-mram",
            ecc=ECCConfig(kind=kind, interleaving_degree=degree),
        )
        return build_protected_cache(
            scheme, config, p_cell=1e-8, data_profile=DataValueProfile.constant(100), seed=1
        )

    def test_interleaved_baseline_beats_plain_sec_baseline(self):
        sec = self._build(ECCKind.HAMMING_SEC)
        interleaved = self._build(ECCKind.INTERLEAVED_SECDED, degree=4)
        victim = sec.cache.mapper.compose(1, 3)
        aggressor = sec.cache.mapper.compose(2, 3)
        for cache in (sec, interleaved):
            cache.read(victim)
            cache.read(aggressor)
            for _ in range(100):
                cache.read(aggressor)
            cache.read(victim)
        assert interleaved.expected_failures < sec.expected_failures

    def test_reap_with_plain_sec_still_beats_interleaved_baseline(self):
        """The ablation headline: REAP + SEC outperforms a conventional cache
        hardened with 4-way interleaved SEC-DED."""
        interleaved_baseline = self._build(ECCKind.INTERLEAVED_SECDED, degree=4)
        reap_sec = self._build(ECCKind.HAMMING_SEC, scheme=ProtectionScheme.REAP)
        victim = reap_sec.cache.mapper.compose(1, 3)
        aggressor = reap_sec.cache.mapper.compose(2, 3)
        for cache in (interleaved_baseline, reap_sec):
            cache.read(victim)
            cache.read(aggressor)
            for _ in range(200):
                cache.read(aggressor)
            cache.read(victim)
        assert reap_sec.expected_failures < interleaved_baseline.expected_failures
