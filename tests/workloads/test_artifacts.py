"""Tests for the cross-job artifact cache: hits, misses, and failure paths."""

from __future__ import annotations

import json
import os
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.config import (
    CacheLevelConfig,
    HierarchyConfig,
    ReplacementPolicyName,
    SimulationConfig,
)
from repro.telemetry import MemorySink, telemetry
from repro.workloads import (
    ARTIFACT_CACHE_ENV,
    ArtifactCache,
    BinaryTraceSource,
    Trace,
    generate_l2_trace,
    get_profile,
    hot_loop_trace,
)
from repro.workloads.artifacts import _reset_warned_roots


def small_l2() -> CacheLevelConfig:
    return CacheLevelConfig(
        name="L2",
        size_bytes=64 * 1024,
        associativity=8,
        block_size_bytes=64,
        technology="stt-mram",
    )


def small_hierarchy() -> HierarchyConfig:
    return HierarchyConfig(
        l1i=CacheLevelConfig(
            name="L1I", size_bytes=4 * 1024, associativity=2, block_size_bytes=64
        ),
        l1d=CacheLevelConfig(
            name="L1D", size_bytes=4 * 1024, associativity=4, block_size_bytes=64
        ),
        l2=small_l2(),
    )


def artifact_events(sink: MemorySink) -> list[tuple[str, str]]:
    """(artifact, outcome) pairs of the cache counters captured by ``sink``."""
    return [
        (event["artifact"], event["outcome"])
        for event in sink.events
        if event.get("name") == "cache.artifact"
    ]


@pytest.fixture(autouse=True)
def fresh_warning_state():
    _reset_warned_roots()
    yield
    _reset_warned_roots()


class TestResolve:
    def test_instance_passes_through(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert ArtifactCache.resolve(cache) is cache

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ARTIFACT_CACHE_ENV, str(tmp_path / "env"))
        cache = ArtifactCache.resolve(tmp_path / "flag")
        assert cache is not None
        assert cache.root == tmp_path / "flag"

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ARTIFACT_CACHE_ENV, str(tmp_path))
        cache = ArtifactCache.resolve(None)
        assert cache is not None
        assert cache.root == tmp_path

    def test_unset_env_disables(self, monkeypatch):
        monkeypatch.delenv(ARTIFACT_CACHE_ENV, raising=False)
        assert ArtifactCache.resolve(None) is None

    @pytest.mark.parametrize("spelling", ["", "0", "off", "none", "disabled", " OFF "])
    def test_disabling_spellings(self, spelling, monkeypatch):
        assert ArtifactCache.resolve(spelling) is None
        monkeypatch.setenv(ARTIFACT_CACHE_ENV, spelling)
        assert ArtifactCache.resolve(None) is None


class TestL2TraceCache:
    def test_miss_generates_then_hit_serves_identical_trace(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        profile = get_profile("gcc")
        config = small_l2()
        sink = MemorySink()
        with telemetry(sink):
            cold = cache.l2_trace(profile, config, 500, seed=3)
            warm = cache.l2_trace(profile, config, 500, seed=3)
        assert isinstance(cold, Trace)
        assert isinstance(warm, BinaryTraceSource)
        reference = generate_l2_trace(profile, config, 500, seed=3)
        ref_kinds, ref_addresses = reference.decoded()
        np.testing.assert_array_equal(cold.decoded()[0], ref_kinds)
        np.testing.assert_array_equal(cold.decoded()[1], ref_addresses)
        with warm:
            warm_kinds = np.concatenate([k for k, _ in warm.segments()])
            warm_addresses = np.concatenate([a for _, a in warm.segments()])
        np.testing.assert_array_equal(warm_kinds, ref_kinds)
        np.testing.assert_array_equal(warm_addresses, ref_addresses)
        assert artifact_events(sink) == [
            ("trace", "miss"),
            ("trace", "store"),
            ("trace", "hit"),
        ]

    def test_distinct_recipes_key_distinct_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        profile = get_profile("gcc")
        config = small_l2()
        key_a = cache.trace_key(profile, config, 500, seed=3)
        assert cache.trace_key(profile, config, 500, seed=4) != key_a
        assert cache.trace_key(profile, config, 501, seed=3) != key_a
        assert cache.trace_key(get_profile("mcf"), config, 500, seed=3) != key_a

    def test_corrupt_entry_recomputed_and_healed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        profile = get_profile("gcc")
        config = small_l2()
        cache.l2_trace(profile, config, 300, seed=5)
        key = cache.trace_key(profile, config, 300, seed=5)
        path = cache._trace_path(key)
        original = path.read_bytes()
        path.write_bytes(original[: len(original) // 2])  # truncate

        sink = MemorySink()
        with telemetry(sink):
            recovered = cache.l2_trace(profile, config, 300, seed=5)
        assert isinstance(recovered, Trace)  # recomputed, not crashed
        assert artifact_events(sink) == [("trace", "error"), ("trace", "store")]
        assert path.read_bytes() == original  # entry healed atomically

    def test_garbage_entry_is_an_error_not_a_crash(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        profile = get_profile("gcc")
        config = small_l2()
        key = cache.trace_key(profile, config, 200, seed=1)
        path = cache._trace_path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a trace at all")
        trace = cache.l2_trace(profile, config, 200, seed=1)
        assert isinstance(trace, Trace)


class TestTruncationFuzz:
    def test_trace_truncated_at_every_byte_reads_as_miss_and_heals(self, tmp_path):
        """Fuzz: a cached trace cut at *every* byte boundary must never
        parse — each prefix reads as a miss/error, recomputes, and heals
        the entry back to its original bytes (never a crash, never a
        silently-wrong shorter trace)."""
        cache = ArtifactCache(tmp_path)
        profile = get_profile("gcc")
        config = small_l2()
        cache.l2_trace(profile, config, 60, seed=11)
        key = cache.trace_key(profile, config, 60, seed=11)
        path = cache._trace_path(key)
        original = path.read_bytes()
        reference = generate_l2_trace(profile, config, 60, seed=11)

        for cut in range(len(original)):
            path.write_bytes(original[:cut])
            recovered = cache.l2_trace(profile, config, 60, seed=11)
            # A prefix never parses as a (shorter) valid trace: the entry
            # is recomputed fresh, not served from the corrupt file.
            assert isinstance(recovered, Trace), f"cut at {cut} bytes"
            np.testing.assert_array_equal(
                recovered.decoded()[1], reference.decoded()[1]
            )
            assert path.read_bytes() == original, f"cut at {cut} bytes"

    def test_l1_stream_truncated_at_every_byte_reads_as_miss_and_heals(
        self, tmp_path
    ):
        """Same property for both l1-stream files: any truncation of the
        stream or its JSON sidecar loads as ``None``, and re-storing
        restores the original bytes."""
        cache = ArtifactCache(tmp_path)
        key = cache.l1_stream_key("a" * 64, small_hierarchy(), seed=4)
        codes = np.array([0, 0, 1, 0, 1], dtype=np.int8)
        addresses = np.array([0, 64, 4096, 128, 8192], dtype=np.int64)
        state = {"l1d": {"tick": 17}, "globals": [1, 2]}
        assert cache.store_l1_stream(key, "unit", codes, addresses, state)
        stream_path, state_path = cache._stream_paths(key)

        for target in (stream_path, state_path):
            original = target.read_bytes()
            for cut in range(len(original)):
                target.write_bytes(original[:cut])
                assert cache.load_l1_stream(key) is None, (
                    f"{target.name} cut at {cut} bytes"
                )
                # Heal on rewrite: the store path republishes atomically.
                assert cache.store_l1_stream(key, "unit", codes, addresses, state)
                assert target.read_bytes() == original, (
                    f"{target.name} cut at {cut} bytes"
                )
            loaded = cache.load_l1_stream(key)
            assert loaded is not None and loaded[2] == state


class TestConcurrentWriters:
    def test_racing_writers_leave_one_valid_file(self, tmp_path):
        """Interleaved publishes of one key leave a complete, valid artifact.

        Simulates the race deterministically: while writer A holds its temp
        file, writer B runs a full publish of the same key, then A's rename
        lands last.  Both computed identical bytes, so last-wins is safe.
        """
        cache_a = ArtifactCache(tmp_path)
        cache_b = ArtifactCache(tmp_path)
        profile = get_profile("gcc")
        config = small_l2()
        key = cache_a.trace_key(profile, config, 400, seed=2)
        path = cache_a._trace_path(key)

        real_publish = ArtifactCache._publish
        state = {"interleaved": False}

        def interleaving_publish(self, target, write_to):
            def write_then_race(tmp):
                write_to(tmp)
                if not state["interleaved"]:
                    state["interleaved"] = True
                    cache_b.l2_trace(profile, config, 400, seed=2)

            return real_publish(self, target, write_then_race)

        ArtifactCache._publish = interleaving_publish
        try:
            cache_a.l2_trace(profile, config, 400, seed=2)
        finally:
            ArtifactCache._publish = real_publish

        assert state["interleaved"]
        leftovers = [p for p in path.parent.iterdir() if p != path]
        assert leftovers == []  # no orphaned temp files
        reference = generate_l2_trace(profile, config, 400, seed=2)
        # Parses: complete, not interleaved.
        with BinaryTraceSource(path) as survivor:
            kinds = np.concatenate([k for k, _ in survivor.segments()])
        np.testing.assert_array_equal(kinds, reference.decoded()[0])


class TestUnwritableCacheDir:
    def test_degrades_uncached_with_single_warning(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        profile = get_profile("gcc")
        config = small_l2()

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = cache.l2_trace(profile, config, 200, seed=7)
            second = cache.l2_trace(profile, config, 200, seed=7)
        assert isinstance(first, Trace) and isinstance(second, Trace)
        relevant = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1  # deduplicated per cache directory
        assert "not writable" in str(relevant[0].message)
        assert "continuing uncached" in str(relevant[0].message)

    def test_distinct_roots_each_warn_once(self, tmp_path, monkeypatch):
        profile = get_profile("gcc")
        config = small_l2()

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ArtifactCache(tmp_path / "a").l2_trace(profile, config, 200, seed=7)
            ArtifactCache(tmp_path / "b").l2_trace(profile, config, 200, seed=7)
        relevant = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 2


class TestL1StreamCache:
    def sample_stream(self):
        codes = np.array([0, 0, 1, 0, 1], dtype=np.int8)
        addresses = np.array([0, 64, 4096, 128, 8192], dtype=np.int64)
        state = {"l1d": {"tick": 17, "stats": {"read_hits": 3}}, "globals": [1, 2]}
        return codes, addresses, state

    def test_store_load_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.l1_stream_key("a" * 64, small_hierarchy(), seed=4)
        codes, addresses, state = self.sample_stream()
        assert cache.store_l1_stream(key, "unit", codes, addresses, state)
        loaded = cache.load_l1_stream(key)
        assert loaded is not None
        out_codes, out_addresses, out_state = loaded
        np.testing.assert_array_equal(out_codes, codes)
        assert out_codes.dtype == np.int8
        np.testing.assert_array_equal(out_addresses, addresses)
        assert out_state == state

    def test_key_spans_l1_config_and_seed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        hierarchy = small_hierarchy()
        key = cache.l1_stream_key("a" * 64, hierarchy, seed=4)
        assert cache.l1_stream_key("a" * 64, hierarchy, seed=5) != key
        assert cache.l1_stream_key("b" * 64, hierarchy, seed=4) != key
        swept = HierarchyConfig(
            l1i=hierarchy.l1i,
            l1d=CacheLevelConfig(
                name="L1D", size_bytes=4 * 1024, associativity=8, block_size_bytes=64
            ),
            l2=hierarchy.l2,
        )
        assert cache.l1_stream_key("a" * 64, swept, seed=4) != key

    def test_missing_sidecar_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.l1_stream_key("a" * 64, small_hierarchy(), seed=4)
        codes, addresses, state = self.sample_stream()
        cache.store_l1_stream(key, "unit", codes, addresses, state)
        _, state_path = cache._stream_paths(key)
        state_path.unlink()
        assert cache.load_l1_stream(key) is None

    def test_corrupt_sidecar_is_an_error_not_a_crash(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.l1_stream_key("a" * 64, small_hierarchy(), seed=4)
        codes, addresses, state = self.sample_stream()
        cache.store_l1_stream(key, "unit", codes, addresses, state)
        _, state_path = cache._stream_paths(key)
        state_path.write_bytes(b"\x80\x04 truncated pickle")
        sink = MemorySink()
        with telemetry(sink):
            assert cache.load_l1_stream(key) is None
        assert ("l1-stream", "error") in artifact_events(sink)

    def test_unserialisable_state_skips_caching(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.l1_stream_key("a" * 64, small_hierarchy(), seed=4)
        codes, addresses, _ = self.sample_stream()
        sink = MemorySink()
        with telemetry(sink):
            stored = cache.store_l1_stream(
                key, "unit", codes, addresses, {"handle": lambda: None}
            )
        assert not stored
        assert artifact_events(sink) == [("l1-stream", "skip")]
        stream_path, state_path = cache._stream_paths(key)
        assert not stream_path.exists() and not state_path.exists()

    def test_empty_stream_round_trips(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.l1_stream_key("a" * 64, small_hierarchy(), seed=4)
        empty_codes = np.zeros(0, dtype=np.int8)
        empty_addresses = np.zeros(0, dtype=np.int64)
        assert cache.store_l1_stream(key, "unit", empty_codes, empty_addresses, {})
        loaded = cache.load_l1_stream(key)
        assert loaded is not None
        codes, addresses, state = loaded
        assert codes.size == 0 and addresses.size == 0 and state == {}

    def test_state_json_round_trips_policy_state(self, tmp_path):
        """The JSON sidecar carries built-in policy state exactly:
        ``[set_index, row]`` pairs and PCG64's plain state dict, whose
        128-bit integers survive the round trip."""
        cache = ArtifactCache(tmp_path)
        key = cache.l1_stream_key("a" * 64, small_hierarchy(), seed=4)
        codes, addresses, _ = self.sample_stream()
        state = {
            "rows": [[0, [3, 1, 2, 0]]],
            "globals": [np.random.default_rng(1).bit_generator.state],
        }
        assert cache.store_l1_stream(key, "unit", codes, addresses, state)
        _, state_path = cache._stream_paths(key)
        assert json.loads(state_path.read_bytes()) == state
        loaded = cache.load_l1_stream(key)
        assert loaded is not None
        assert loaded[2] == state

    @pytest.mark.parametrize("policy", list(ReplacementPolicyName))
    def test_builtin_l1_policy_end_state_is_cached(self, tmp_path, policy):
        """Every built-in L1 policy's end state is JSON-native, so the
        filtered stream is stored on the first run and served warm after."""
        from repro.core import build_protected_cache
        from repro.sim import run_cpu_trace

        hierarchy = small_hierarchy()
        config = SimulationConfig(
            hierarchy=replace(
                hierarchy,
                l1i=replace(hierarchy.l1i, replacement=policy),
                l1d=replace(hierarchy.l1d, replacement=policy),
            )
        )
        trace = hot_loop_trace(num_accesses=600, data_bytes=8 * 1024, seed=3)
        sink = MemorySink()
        with telemetry(sink):
            for _ in range(2):
                run_cpu_trace(
                    build_protected_cache("reap", small_l2(), p_cell=1e-8),
                    trace,
                    config=config,
                    artifact_cache=tmp_path,
                )
        assert artifact_events(sink) == [
            ("l1-stream", "miss"),
            ("l1-stream", "store"),
            ("l1-stream", "hit"),
        ]

    def test_pickled_sidecar_is_never_unpickled(self, tmp_path):
        """A sidecar planted in a shared cache directory cannot run code:
        a pickle whose load would call a function reads as a miss."""
        cache = ArtifactCache(tmp_path)
        key = cache.l1_stream_key("a" * 64, small_hierarchy(), seed=4)
        codes, addresses, state = self.sample_stream()
        assert cache.store_l1_stream(key, "unit", codes, addresses, state)
        _, state_path = cache._stream_paths(key)
        state_path.write_bytes(pickle.dumps(_PlantedPayload()))
        _PLANTED_CALLS.clear()
        assert cache.load_l1_stream(key) is None
        assert _PLANTED_CALLS == []


#: Calls made by :func:`_record_planted_call`; stays empty unless a planted
#: pickle is loaded.
_PLANTED_CALLS: list[str] = []


def _record_planted_call(tag: str) -> dict:
    _PLANTED_CALLS.append(tag)
    return {}


class _PlantedPayload:
    def __reduce__(self):
        return _record_planted_call, ("planted",)
