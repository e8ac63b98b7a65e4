"""Tests for the L2-level trace generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import AddressMapper
from repro.config import CacheLevelConfig, paper_l2_config
from repro.errors import ConfigurationError, TraceError
from repro.workloads import AccessKind, generate_l2_trace, generator, get_profile
from repro.workloads.spec_profiles import SPECWorkloadProfile
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


# --- The churn-stream block emulation -------------------------------------

#: PCG64's 128-bit LCG multiplier, for crafting a state with a chosen output.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_NUMPY_STREAM = (
    f"numpy {np.__version__} changed the Generator stream the churn-set "
    "emulation in repro.workloads.generator reproduces; see the README's "
    "'Traces and the L2 generator'"
)


def _twin(rng):
    """A fresh PCG64 generator in ``rng``'s exact state."""
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def _zero_word_ahead(rng, ahead):
    """Put ``rng`` where its ``ahead``-th next raw word is 0."""
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    # The state whose next step lands on LCG state 0, whose output is 0.
    state["state"]["state"] = (-inc * pow(_PCG64_MULTIPLIER, -1, 1 << 128)) % (1 << 128)
    rng.bit_generator.state = state
    rng.bit_generator.advance(-(ahead - 1))


def _buffer_uint32(rng):
    rng.integers(5)  # leaves the drawn word's high half buffered


def _emulated_integer(n, words, i, has_uint32, uinteger):
    """``integers(n)`` composed from the module's 32-bit draw and Lemire step."""
    if n == 1:
        return 0, i, has_uint32, uinteger
    u, i, has_uint32, uinteger = generator._next_uint32(words, i, has_uint32, uinteger)
    m, i, has_uint32, uinteger = generator._lemire_redraw(
        n, u * n, words, i, has_uint32, uinteger
    )
    return m >> 32, i, has_uint32, uinteger


def _churn_builders(lengths, write_fraction, miss_fraction, window, seed, tag_bits=31):
    profile = SPECWorkloadProfile(
        name="churn",
        write_fraction=write_fraction,
        stable_traffic_share=0.0,
        num_stable_sets=0,
        num_churn_sets=len(lengths),
        hot_lines_per_set=1,
        cold_lines_per_set=0,
        cold_gap_median=8.0,
        cold_gap_sigma=0.0,
        churn_miss_fraction=miss_fraction,
        churn_reuse_window=window,
    )
    rng = np.random.default_rng(seed)
    builders = [
        generator._SetStreamBuilder(tag_bits, s, profile, rng) for s in range(len(lengths))
    ]
    return rng, builders


def _assert_block_matches_loop(
    lengths, write_fraction, miss_fraction, window, seed, prepare=None, tag_bits=31
):
    """The block path and the loop leave the same columns, tags and RNG
    state; ``prepare(rng)`` runs on each fresh generator first."""
    results = []
    for block in (True, False):
        rng, builders = _churn_builders(
            lengths, write_fraction, miss_fraction, window, seed, tag_bits
        )
        if prepare is not None:
            prepare(rng)
        if block:
            streams = generator._churn_streams(builders, lengths, rng)
        else:
            streams = [b.churn_stream(n) for b, n in zip(builders, lengths)]
        results.append(
            (
                [(kinds.tolist(), tags.tolist()) for kinds, tags in streams],
                [(b._next_fresh_tag, b._live_tags) for b in builders],
                rng.bit_generator.state,
            )
        )
    block_result, loop_result = results
    assert block_result[0] == loop_result[0], _NUMPY_STREAM
    assert block_result[1] == loop_result[1]
    assert block_result[2] == loop_result[2], _NUMPY_STREAM


class TestRawDrawPin:
    """The emulated draws equal ``Generator.random``/``integers`` on the
    installed numpy.  NEP 19 promises no stream stability across releases,
    so a numpy that changes them fails here, by name."""

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 2019])
    def test_interleaved_random_and_integers(self, seed, buffered):
        rng = np.random.default_rng(seed)
        if buffered:
            _buffer_uint32(rng)
        assert rng.bit_generator.state["has_uint32"] == int(buffered)
        entry = rng.bit_generator.state
        words_array = _twin(rng).bit_generator.random_raw(4_000)
        uniforms = generator._uniforms(words_array)
        words = words_array.tolist()
        # n near 2**31 and 3 * 2**30 reject often; 2**32 - 1 rejects only 0.
        bounds = [1, 2, 3, 4, 7, 64, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1]
        ops = np.random.default_rng(seed + 100).integers(len(bounds) + 2, size=1_500)
        i, has_uint32, uinteger = 0, entry["has_uint32"], entry["uinteger"]
        expected, emulated = [], []
        for op in ops.tolist():
            if op >= len(bounds):
                expected.append(rng.random())
                emulated.append(float(uniforms[i]))
                i += 1
            else:
                n = bounds[op]
                expected.append(int(rng.integers(n)))
                value, i, has_uint32, uinteger = _emulated_integer(
                    n, words, i, has_uint32, uinteger
                )
                emulated.append(value)
        assert emulated == expected, _NUMPY_STREAM
        # The emulation also ends where numpy's generator ends.
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = entry
        twin.bit_generator.advance(i)
        state = twin.bit_generator.state
        state.update(has_uint32=has_uint32, uinteger=uinteger)
        assert state == rng.bit_generator.state, _NUMPY_STREAM

    def test_lemire_rejection_with_crafted_words(self):
        # Low half 0 is rejected for n = 3 (threshold (2**32 - 3) % 3 = 1);
        # the buffered high half 2**31 is accepted: (2**31 * 3) >> 32 = 1.
        words = [0x80000000_00000000]
        u, i, has_uint32, uinteger = generator._next_uint32(words, 0, 0, 0)
        assert (u, i, has_uint32, uinteger) == (0, 1, 1, 0x80000000)
        m, i, has_uint32, uinteger = generator._lemire_redraw(
            3, u * 3, words, i, has_uint32, uinteger
        )
        assert (m >> 32, i, has_uint32) == (1, 1, 0)
        # n = 2 has threshold 0: a zero leftover is accepted as it is.
        assert generator._lemire_redraw(2, 0, [], 0, 0, 0) == (0, 0, 0, 0)

    def test_lemire_rejection_matches_numpy(self):
        rng = np.random.default_rng(3)
        _zero_word_ahead(rng, 1)
        words = _twin(rng).bit_generator.random_raw(2).tolist()
        assert words[0] == 0
        # Both halves of the zero word are rejected; word 1 decides.
        assert _emulated_integer(3, words, 0, 0, 0)[:2] == (rng.integers(3), 2)

    def test_walk_rejection_with_crafted_words(self):
        # Window 3, every miss draw a hit.  Position 1 (n = 1) draws nothing;
        # position 2 (n = 2) takes word 5's low half 2**31, index 1; position
        # 3 (n = 3) takes its buffered high half 0, is rejected, and takes
        # word 8's low half 2**32 - 1, index 2.
        words = [0] * 10
        words[5] = 0x00000000_80000000
        words[8] = 0x12345678_FFFFFFFF
        sources, drawn, consumed, has_uint32, uinteger = generator._walk_churn(
            words, [False] * 10, [4], 3, 0, 0
        )
        assert sources == [0, 0, 1, 2]
        assert drawn == [2, 3]
        assert (consumed, has_uint32, uinteger) == (9, 1, 0x12345678)

    def test_walk_reports_exhausted_words(self):
        with pytest.raises(IndexError):
            generator._walk_churn([0] * 4, [False] * 4, [4], 3, 0, 0)


class TestChurnBlockEmulation:
    """The block path equals ``churn_stream``'s loop, draw for draw."""

    @settings(max_examples=60, deadline=None)
    @given(
        write_fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        miss_fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        window=st.integers(1, 64),
        lengths=st.lists(st.integers(1, 2_000), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        buffered=st.booleans(),
    )
    def test_block_path_equals_loop(
        self, write_fraction, miss_fraction, window, lengths, seed, buffered
    ):
        prepare = _buffer_uint32 if buffered else None
        _assert_block_matches_loop(
            lengths, write_fraction, miss_fraction, window, seed, prepare
        )

    def test_rejection_inside_a_stream_matches_loop(self, monkeypatch):
        """A crafted zero word makes position 3's draw a Lemire rejection."""
        calls = []
        real = generator._lemire_redraw

        def spy(n, m, *args):
            calls.append((n, m & 0xFFFFFFFF))
            return real(n, m, *args)

        monkeypatch.setattr(generator, "_lemire_redraw", spy)
        # Word 5 is position 2's fresh 32-bit draw; its high half is
        # position 3's buffered draw.
        _assert_block_matches_loop([12], 0.3, 0.0, 3, 5, lambda rng: _zero_word_ahead(rng, 6))
        assert (3, 0) in calls  # position 3's buffered zero half was rejected

    def test_streams_span_several_blocks(self, monkeypatch):
        monkeypatch.setattr(generator, "_BLOCK_ACCESSES", 100)
        _assert_block_matches_loop([70, 80, 90, 30], 0.2, 0.3, 4, 9, _buffer_uint32)

    def test_exhausted_block_falls_back_to_the_loop(self, monkeypatch):
        def exhausted(*args):
            raise IndexError("out of words")

        monkeypatch.setattr(generator, "_walk_churn", exhausted)
        _assert_block_matches_loop([50, 60], 0.2, 0.3, 4, 4)

    def test_possible_wraparound_runs_the_loop(self):
        # 3 tag bits: tags 1..7, so a stream of 7 could wrap, one of 6 not.
        _, builders = _churn_builders([7, 6], 0.2, 0.5, 3, seed=1, tag_bits=3)
        assert not generator._emulable(builders[0], 7)
        assert generator._emulable(builders[1], 6)
        builders[1]._claim_tag()
        assert not generator._emulable(builders[1], 2)  # a tag is live
        assert not generator._emulable(builders[0], 0)

    def test_wraparound_streams_between_block_streams(self):
        """A loop-run stream splits the block streams around it."""
        _assert_block_matches_loop([5, 9, 4], 0.3, 0.4, 3, 8, _buffer_uint32, tag_bits=3)
