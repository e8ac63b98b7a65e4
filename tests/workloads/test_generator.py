"""Tests for the L2-level trace generator."""

import numpy as np
import pytest

from repro.cache import AddressMapper
from repro.config import CacheLevelConfig, paper_l2_config
from repro.errors import ConfigurationError, TraceError
from repro.workloads import AccessKind, generate_l2_trace, get_profile
from repro.workloads.trace import KIND_ORDER

_READ = KIND_ORDER.index(AccessKind.L2_READ)
_WRITE = KIND_ORDER.index(AccessKind.L2_WRITE)


@pytest.fixture(scope="module")
def l2_config():
    return paper_l2_config()


class TestBasicGeneration:
    def test_length(self, l2_config):
        trace = generate_l2_trace(get_profile("gcc"), l2_config, num_accesses=5_000, seed=1)
        assert len(trace) == 5_000

    def test_only_l2_level_records(self, l2_config):
        trace = generate_l2_trace(get_profile("gcc"), l2_config, num_accesses=2_000, seed=1)
        assert all(r.kind in (AccessKind.L2_READ, AccessKind.L2_WRITE) for r in trace)

    def test_deterministic_for_same_seed(self, l2_config):
        a = generate_l2_trace(get_profile("gcc"), l2_config, num_accesses=2_000, seed=5)
        b = generate_l2_trace(get_profile("gcc"), l2_config, num_accesses=2_000, seed=5)
        assert [(r.kind, r.address) for r in a] == [(r.kind, r.address) for r in b]

    def test_different_seeds_differ(self, l2_config):
        a = generate_l2_trace(get_profile("gcc"), l2_config, num_accesses=2_000, seed=1)
        b = generate_l2_trace(get_profile("gcc"), l2_config, num_accesses=2_000, seed=2)
        assert [(r.kind, r.address) for r in a] != [(r.kind, r.address) for r in b]

    def test_trace_named_after_profile(self, l2_config):
        assert generate_l2_trace(get_profile("mcf"), l2_config, 1_000).name == "mcf"

    def test_fast_replay_builds_no_records(self, l2_config, monkeypatch):
        """Traces are columns: generating or replaying one (either engine)
        never builds per-access record objects."""
        from repro.core import build_protected_cache
        from repro.sim import run_l2_trace
        from repro.workloads import TraceRecord

        def forbidden(record):
            raise AssertionError(f"built a TraceRecord: {record}")

        monkeypatch.setattr(TraceRecord, "__post_init__", forbidden)
        trace = generate_l2_trace(get_profile("gcc"), l2_config, num_accesses=2_000)
        fast = run_l2_trace(build_protected_cache("reap", l2_config), trace, engine="fast")
        reference = run_l2_trace(
            build_protected_cache("reap", l2_config), trace, engine="reference"
        )
        assert fast == reference

    def test_rejects_nonpositive_length(self, l2_config):
        with pytest.raises(TraceError):
            generate_l2_trace(get_profile("gcc"), l2_config, num_accesses=0)

    def test_rejects_too_many_sets(self):
        tiny = CacheLevelConfig(
            name="tiny", size_bytes=8 * 64 * 8, associativity=8, block_size_bytes=64
        )
        with pytest.raises(ConfigurationError):
            generate_l2_trace(get_profile("gcc"), tiny, num_accesses=100)


class TestStatisticalShape:
    def test_write_fraction_tracks_profile(self, l2_config):
        profile = get_profile("lbm")
        trace = generate_l2_trace(profile, l2_config, num_accesses=20_000, seed=3)
        observed = trace.write_count / len(trace)
        # Stable-set cold re-reads and churn structure perturb the raw rate a
        # little, so allow a generous band around the configured fraction.
        assert observed == pytest.approx(profile.write_fraction, abs=0.1)

    def test_read_heavy_profile_is_read_heavy(self, l2_config):
        trace = generate_l2_trace(get_profile("cactusADM"), l2_config, num_accesses=20_000, seed=3)
        assert trace.read_fraction > 0.9

    def test_addresses_land_in_a_limited_set_population(self, l2_config):
        profile = get_profile("perlbench")
        trace = generate_l2_trace(profile, l2_config, num_accesses=10_000, seed=1)
        mapper = AddressMapper(l2_config)
        sets_touched = {mapper.set_index(r.address) for r in trace}
        assert len(sets_touched) <= profile.num_stable_sets + profile.num_churn_sets

    def test_streaming_profile_touches_many_blocks(self, l2_config):
        mcf = generate_l2_trace(get_profile("mcf"), l2_config, num_accesses=10_000, seed=1)
        cactus = generate_l2_trace(get_profile("cactusADM"), l2_config, num_accesses=10_000, seed=1)
        assert mcf.unique_blocks(64) > 2 * cactus.unique_blocks(64)

    def test_stable_sets_produce_long_reuse_gaps(self, l2_config):
        """The defining feature of heavy-tail profiles: some block is re-read
        only after thousands of intervening accesses to its set."""
        profile = get_profile("h264ref")
        trace = generate_l2_trace(profile, l2_config, num_accesses=40_000, seed=2)
        mapper = AddressMapper(l2_config)
        per_set_position: dict[int, int] = {}
        last_seen: dict[int, int] = {}
        max_gap = 0
        for record in trace:
            if record.kind is not AccessKind.L2_READ:
                continue
            decomposed = mapper.decompose(record.address)
            position = per_set_position.get(decomposed.index, 0)
            block = record.address // 64
            if block in last_seen:
                max_gap = max(max_gap, position - last_seen[block])
            last_seen[block] = position
            per_set_position[decomposed.index] = position + 1
        assert max_gap > 1_000


class TestFreshTagWraparound:
    """`_fresh_tag` must never re-issue a live tag after wrapping around.

    The set-stream builder emits ``(kind code, tag)`` columns; the tests
    read the tag column directly.
    """

    @staticmethod
    def _builder(tag_bits=3, churn_miss_fraction=1.0, churn_reuse_window=3):
        from repro.workloads.generator import _SetStreamBuilder
        from repro.workloads.spec_profiles import SPECWorkloadProfile

        # 3 tag bits: tags 1..7 usable (tag 0 reserved).
        profile = SPECWorkloadProfile(
            name="tiny",
            write_fraction=0.2,
            stable_traffic_share=0.5,
            num_stable_sets=1,
            num_churn_sets=1,
            hot_lines_per_set=2,
            cold_lines_per_set=1,
            cold_gap_median=8.0,
            cold_gap_sigma=0.0,
            churn_miss_fraction=churn_miss_fraction,
            churn_reuse_window=churn_reuse_window,
        )
        rng = np.random.default_rng(7)
        return _SetStreamBuilder(tag_bits, 0, profile, rng)

    def test_wraparound_skips_live_tags(self):
        builder = self._builder()
        live = {builder._claim_tag() for _ in range(3)}  # tags 1..3 stay live
        drawn = [builder._fresh_tag() for _ in range(8)]  # forces wraparound
        assert not live.intersection(drawn)
        assert all(1 <= tag <= 7 for tag in drawn)

    def test_exhausted_tag_space_raises(self):
        builder = self._builder()
        for _ in range(7):
            builder._claim_tag()
        with pytest.raises(TraceError, match="tag space exhausted"):
            builder._fresh_tag()

    def test_churn_stream_releases_expired_tags(self):
        # Streaming misses only: far more fresh tags than the 7-tag space.
        # Expired tags leave the reuse window and become reusable, so the
        # stream keeps going instead of exhausting the space.
        builder = self._builder(churn_miss_fraction=1.0, churn_reuse_window=3)
        kinds, tags = builder.churn_stream(100)
        assert len(kinds) == len(tags) == 100
        assert set(kinds.tolist()) <= {_READ, _WRITE}
        # No access may alias a line that is still in the reuse window: each
        # window of 4 consecutive accesses (one new + window of 3) holds
        # distinct tags.
        tags = tags.tolist()
        for i in range(3, len(tags)):
            assert tags[i] not in tags[i - 3 : i]

    def test_churn_stream_exhaustion_is_a_clear_error(self):
        builder = self._builder(churn_miss_fraction=1.0, churn_reuse_window=64)
        with pytest.raises(TraceError, match="tag space exhausted"):
            builder.churn_stream(100)

    def test_stable_stream_hot_cold_tags_stay_distinct(self):
        builder = self._builder()
        kinds, tags = builder.stable_stream(50)
        assert len(kinds) == len(tags) == 50
        assert set(kinds.tolist()) <= {_READ, _WRITE}
        assert len(set(tags.tolist())) == 3  # 2 hot + 1 cold, no aliasing
