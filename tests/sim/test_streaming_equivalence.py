"""Differential harness for out-of-core (segmented) trace replay.

Chunked replay must be *bit-identical* to whole-trace replay: same
:class:`SchemeRunResult`, same accumulation-tracker samples, same
reliability/energy statistics, same per-block and per-set policy state —
for every scheme, several segment sizes, both engines, and traces served
from disk (binary and text sources).
"""

from __future__ import annotations

import numpy as np
import pytest
from equivalence_utils import (
    EQUIVALENCE_SCHEMES,
    assert_caches_equivalent,
    assert_results_equivalent,
    build_cache,
    segmented,
    small_l2,
)

from repro.sim import ExperimentSettings, run_l2_trace
from repro.telemetry import MemorySink, telemetry
from repro.workloads import generate_l2_trace, get_profile, open_trace

#: Engines replaying the segmented side; the whole side is always fast.
ENGINES = ("fast", "reference")

#: Segment sizes exercised against the 6000-access trace below: one that
#: divides it, one ragged, and one larger than the whole trace.
SEGMENT_SIZES = (500, 1777, 8192)

NUM_ACCESSES = 6000


@pytest.fixture(scope="module")
def trace():
    return generate_l2_trace(get_profile("mcf"), small_l2(), NUM_ACCESSES, seed=5)


@pytest.fixture(scope="module")
def binary_path(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("streams") / "trace.bin"
    trace.save_binary(path, chunk_accesses=1000)  # segments cross chunks
    return path


def run_whole(scheme, trace):
    cache = build_cache(scheme)
    result = run_l2_trace(cache, trace, engine="fast")
    return result, cache


class TestSegmentedReplayBitIdentity:
    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("segment_accesses", SEGMENT_SIZES)
    def test_segmented_equals_whole(self, trace, scheme, engine, segment_accesses):
        whole_result, whole_cache = run_whole(scheme, trace)
        segmented_cache = build_cache(scheme)
        segmented_result = run_l2_trace(
            segmented_cache, segmented(trace, segment_accesses), engine=engine
        )
        assert_results_equivalent(whole_result, segmented_result)
        assert_caches_equivalent(whole_cache, segmented_cache)

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_binary_source_equals_whole(self, trace, binary_path, scheme, engine):
        whole_result, whole_cache = run_whole(scheme, trace)
        source_cache = build_cache(scheme)
        with open_trace(binary_path) as source:
            source_result = run_l2_trace(
                source_cache, segmented(source, 1536), engine=engine
            )
        assert_results_equivalent(whole_result, source_result)
        assert_caches_equivalent(whole_cache, source_cache)

    @pytest.mark.parametrize("scheme", ("conventional", "reap", "scrubbing"))
    def test_reference_engine_segmented_equals_whole(self, trace, scheme):
        whole_cache = build_cache(scheme)
        whole_result = run_l2_trace(whole_cache, trace, engine="reference")
        segmented_cache = build_cache(scheme)
        segmented_result = run_l2_trace(
            segmented_cache, segmented(trace, 1234), engine="reference"
        )
        assert_results_equivalent(whole_result, segmented_result)
        assert_caches_equivalent(whole_cache, segmented_cache)

    def test_text_source_equals_whole(self, trace, tmp_path):
        path = tmp_path / "trace.txt"
        trace.save(path)
        whole_result, whole_cache = run_whole("reap", trace)
        source_cache = build_cache("reap")
        source_result = run_l2_trace(
            source_cache,
            segmented(open_trace(path, name=trace.name), 900),
            engine="fast",
        )
        assert_results_equivalent(whole_result, source_result)
        assert_caches_equivalent(whole_cache, source_cache)

    def test_default_segmenting_of_a_source_is_identical(self, trace, binary_path):
        """A TraceSource with no explicit segment size replays correctly."""
        whole_result, whole_cache = run_whole("reap", trace)
        source_cache = build_cache("reap")
        with open_trace(binary_path) as source:
            source_result = run_l2_trace(source_cache, source, engine="fast")
        assert_results_equivalent(whole_result, source_result)
        assert_caches_equivalent(whole_cache, source_cache)


class TestSegmentedReplayPlumbing:
    def test_segment_spans_emitted(self, trace):
        sink = MemorySink()
        cache = build_cache("reap")
        with telemetry(sink):
            run_l2_trace(cache, segmented(trace, 1000), engine="fast")
        spans = [
            e
            for e in sink.events
            if e.get("kind") == "span" and e.get("name") == "kernel.segment"
        ]
        # 6000 accesses in segments of 1000 -> 6 segment spans.
        assert len(spans) == 6
        assert [s["segment"] for s in spans] == list(range(6))
        assert sum(s["accesses"] for s in spans) == NUM_ACCESSES

    def test_invalid_segment_accesses_rejected(self, trace, binary_path):
        from repro.errors import TraceError

        with pytest.raises(TraceError, match="positive"):
            next(trace.segments(0))
        with open_trace(binary_path) as source:
            with pytest.raises(TraceError, match="positive"):
                next(source.segments(0))

    def test_cpu_level_records_rejected_per_segment(self):
        from repro.errors import SimulationError
        from repro.workloads import AccessKind, Trace, TraceRecord

        bad = Trace(
            name="bad",
            records=[
                TraceRecord(AccessKind.L2_READ, 0x40),
                TraceRecord(AccessKind.LOAD, 0x80),
            ],
        )
        cache = build_cache("reap")
        with pytest.raises(SimulationError, match="L2-level"):
            run_l2_trace(cache, segmented(bad, 1), engine="fast")

    def test_settings_serialisation_roundtrip(self):
        settings = ExperimentSettings(trace_file="/tmp/t.bin")
        data = settings.to_dict()
        assert data["trace_file"] == "/tmp/t.bin"
        rebuilt = ExperimentSettings.from_dict(data)
        assert rebuilt.trace_file == "/tmp/t.bin"

    def test_default_settings_keep_legacy_serialisation(self):
        """Unset streaming knobs must not appear in the job-identity dict."""
        data = ExperimentSettings().to_dict()
        assert "trace_file" not in data
        assert "segment_accesses" not in data
        rebuilt = ExperimentSettings.from_dict(data)
        assert rebuilt.trace_file is None

    def test_payload_with_segment_knob_still_loads(self):
        """Settings once carried a replay segment length; old payloads load.

        The key is ignored, so such a payload has the same job identity as
        one written without it.
        """
        data = ExperimentSettings(trace_file="/tmp/t.bin").to_dict()
        rebuilt = ExperimentSettings.from_dict({**data, "segment_accesses": 4096})
        assert rebuilt == ExperimentSettings.from_dict(data)
        assert rebuilt.to_dict() == data

    def test_run_workload_honours_trace_file(self, trace, binary_path):
        from repro.sim import run_workload

        file_result, _ = run_workload(
            "mcf",
            "reap",
            settings=ExperimentSettings(
                l2_config=small_l2(), trace_file=str(binary_path)
            ),
        )
        generated_result, _ = run_workload(
            "mcf",
            "reap",
            settings=ExperimentSettings(
                l2_config=small_l2(), num_accesses=NUM_ACCESSES, seed=5
            ),
        )
        assert_results_equivalent(generated_result, file_result)
