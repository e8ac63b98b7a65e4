"""Tests for the cross-job artifact cache: hits, misses, and failure paths."""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.config import CacheLevelConfig
from repro.sim import ExperimentSettings, compare_schemes
from repro.telemetry import MemorySink, telemetry
from repro.workloads import (
    ARTIFACT_CACHE_ENV,
    AccessKind,
    ArtifactCache,
    BinaryTraceSource,
    Trace,
    generate_l2_trace,
    get_profile,
    open_trace,
)
from repro.workloads.artifacts import _reset_warned_roots
from repro.workloads.streams import TextTraceSource
from repro.workloads.trace import _KIND_INDEX


def small_l2() -> CacheLevelConfig:
    return CacheLevelConfig(
        name="L2",
        size_bytes=64 * 1024,
        associativity=8,
        block_size_bytes=64,
        technology="stt-mram",
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


READ = _KIND_INDEX[AccessKind.L2_READ]
WRITE = _KIND_INDEX[AccessKind.L2_WRITE]

#: One text trace per text format, with the columns each one decodes to.
TEXT_TRACES = {
    "text": (
        "R 0x40\nW 0x1000\nR 0x2040\n",
        ([READ, WRITE, READ], [0x40, 0x1000, 0x2040]),
    ),
    "din": (
        "0 400000\n1 400040\n2 8000\n",
        ([READ, WRITE, READ], [0x400000, 0x400040, 0x8000]),
    ),
    "lackey": (
        "I  0023C790,2\n L 04EB8B98,8\n M 0421C7D0,4\n",
        (
            [READ, READ, READ, WRITE],
            [0x0023C790, 0x04EB8B98, 0x0421C7D0, 0x0421C7D0],
        ),
    ),
}


def source_columns(source) -> tuple[list[int], list[int]]:
    """A source's whole ``(kinds, addresses)`` columns, as lists."""
    segments = list(source.segments())
    kinds = np.concatenate([k for k, _ in segments])
    addresses = np.concatenate([a for _, a in segments])
    return kinds.tolist(), addresses.tolist()


class TestBinaryTextTraceMirror:
    """The second trace kind: a text trace file converted once to binary."""

    @pytest.mark.parametrize("fmt", sorted(TEXT_TRACES))
    def test_miss_converts_then_hit_serves_identical_columns(self, fmt, tmp_path):
        body, expected = TEXT_TRACES[fmt]
        path = tmp_path / f"trace.{fmt}"
        path.write_text(body)
        cache = ArtifactCache(tmp_path / "cache")
        sink = MemorySink()
        with telemetry(sink):
            with open_trace(path, format=fmt) as text:
                cold = cache.binary_text_trace(path, text)
            with open_trace(path, format=fmt) as text:
                warm = cache.binary_text_trace(path, text)
        with cold, warm:
            assert isinstance(cold, BinaryTraceSource)
            assert isinstance(warm, BinaryTraceSource)
            assert cold.name == warm.name == "trace"
            assert source_columns(cold) == expected
            assert source_columns(warm) == expected
        # One hit for the one warm open: serving the fresh conversion is not one.
        assert artifact_events(sink) == [
            ("trace", "miss"),
            ("trace", "store"),
            ("trace", "hit"),
        ]

    def test_warm_trace_file_parses_nothing(self, tmp_path, monkeypatch):
        """A ``trace_file`` run over the cache parses the text once, to
        convert it, and not at all once the mirror is warm."""
        path = tmp_path / "t.txt"
        generate_l2_trace(get_profile("gcc"), small_l2(), 20_000, seed=1).save(path)
        parsed = []
        parse_text = TextTraceSource._parse_text

        def counting(line):
            parsed.append(1)
            return parse_text(line)

        monkeypatch.setattr(TextTraceSource, "_parse_text", staticmethod(counting))
        settings = ExperimentSettings(
            l2_config=small_l2(), num_accesses=20_000, trace_file=str(path)
        )
        counts, comparisons = [], []
        for _ in ("cold", "warm"):
            parsed.clear()
            comparisons.append(
                compare_schemes("gcc", settings=settings, artifact_cache=tmp_path / "c")
            )
            counts.append(len(parsed))
        assert counts == [20_000, 0]
        assert comparisons[0] == comparisons[1]

    def test_editing_the_file_invalidates_the_mirror(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("R 0x40\n")
        cache = ArtifactCache(tmp_path / "cache")
        with open_trace(path) as text, cache.binary_text_trace(path, text) as first:
            assert source_columns(first) == ([READ], [0x40])
        path.write_text("W 0x80\nR 0xc0\n")
        with open_trace(path) as text, cache.binary_text_trace(path, text) as second:
            assert source_columns(second) == ([WRITE, READ], [0x80, 0xC0])
        assert len(list((tmp_path / "cache" / "traces").iterdir())) == 2

    def test_unwritable_cache_returns_the_text_source(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.txt"
        path.write_text("R 0x40\nW 0x1000\n")

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with open_trace(path) as text:
                served = ArtifactCache(tmp_path / "cache").binary_text_trace(path, text)
                assert served is text
                assert source_columns(served) == ([READ, WRITE], [0x40, 0x1000])
        relevant = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1

    def test_the_cache_holds_only_trace_files(self, tmp_path):
        """Both kinds publish one ``traces/<key>.reaptrc`` file and nothing
        else: the cache root holds the ``traces`` directory alone."""
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        cache.l2_trace(get_profile("gcc"), small_l2(), 300, seed=1)
        path = tmp_path / "trace.txt"
        path.write_text("R 0x40\n")
        with open_trace(path) as text, cache.binary_text_trace(path, text):
            pass
        assert [entry.name for entry in root.iterdir()] == ["traces"]
        files = sorted((root / "traces").iterdir())
        assert len(files) == 2
        assert all(f.suffix == ".reaptrc" and f.is_file() for f in files)
