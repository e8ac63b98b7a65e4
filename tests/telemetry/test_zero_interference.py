"""Telemetry must observe without influencing: the zero-interference suite.

The hard invariant from the telemetry design: enabling telemetry never
touches job identity, store bytes, or the bit-identical engine guarantee.
These tests run the same campaigns and the same traces with telemetry off
and on (serial and local-pool backends) and require byte-identical stores
and field-identical engine results either way.
"""

from __future__ import annotations

import pytest
from equivalence_utils import segmented

from repro.config import CacheLevelConfig
from repro.campaign import CampaignSpec, ShardedResultStore, run_campaign
from repro.sim import ExperimentSettings, run_l2_trace
from repro.telemetry import MemorySink, aggregate_telemetry, telemetry
from repro.workloads import generate_l2_trace, get_profile


def fast_settings(num_accesses: int = 800) -> ExperimentSettings:
    return ExperimentSettings(
        l2_config=CacheLevelConfig(
            name="L2",
            size_bytes=256 * 1024,
            associativity=8,
            block_size_bytes=64,
            technology="stt-mram",
        ),
        p_cell=1e-8,
        num_accesses=num_accesses,
        ones_count=100,
        seed=1,
    )


def small_spec(workloads=("gcc", "mcf")) -> CampaignSpec:
    return CampaignSpec(
        name="zero-interference",
        workloads=workloads,
        base_settings=fast_settings(),
        sweep=(("p_cell", (1e-8, 1e-7)),),
    )


def store_bytes(store: ShardedResultStore) -> dict[str, bytes]:
    store.compact()
    return {path.name: path.read_bytes() for path in store.shard_paths()}


class TestStoreByteIdentity:
    @pytest.mark.parametrize("backend,jobs", [("serial", 1), ("local", 2)])
    def test_stores_identical_with_telemetry_on_and_off(
        self, tmp_path, backend, jobs
    ):
        spec = small_spec()
        off_store = ShardedResultStore(tmp_path / "off", shard_width=1)
        run_campaign(spec, store=off_store, backend=backend, jobs=jobs)

        on_store = ShardedResultStore(tmp_path / "on", shard_width=1)
        with telemetry(tmp_path / "events.jsonl", campaign=spec.name):
            run_campaign(spec, store=on_store, backend=backend, jobs=jobs)

        assert sorted(off_store.keys()) == sorted(on_store.keys())
        for key in off_store.keys():
            assert off_store.entry_line(key) == on_store.entry_line(key)
        assert store_bytes(off_store) == store_bytes(on_store)

    def test_instrumented_run_actually_emitted(self, tmp_path):
        """Guard against the vacuous pass: the 'on' run must really record
        kernel spans and job events, or byte identity proves nothing."""
        sink = MemorySink()
        store = ShardedResultStore(tmp_path / "store", shard_width=1)
        with telemetry(sink, campaign="guard"):
            run_campaign(small_spec(("gcc",)), store=store)
        stats = aggregate_telemetry(sink.events)
        assert stats.campaign.runs == 1
        assert stats.campaign.executed == small_spec(("gcc",)).num_jobs
        assert stats.engine_selections  # the engine reported which path ran
        assert any(name.startswith("kernel.") for name, _ in stats.spans)

    def test_telemetry_events_never_reach_the_store(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shard_width=1)
        with telemetry(tmp_path / "events.jsonl"):
            run_campaign(small_spec(("gcc",)), store=store)
        for path in store.shard_paths():
            content = path.read_bytes()
            # No telemetry schema keys or event names in the result bytes.
            assert b'"duration_s"' not in content
            assert b'"pid"' not in content
            assert b"kernel.pass" not in content
            assert b"campaign.job" not in content

    def test_cached_resume_identical_with_telemetry_on(self, tmp_path):
        spec = small_spec(("gcc",))
        store = ShardedResultStore(tmp_path / "store", shard_width=1)
        run_campaign(spec, store=store)
        before = store_bytes(store)
        with telemetry(tmp_path / "events.jsonl"):
            result = run_campaign(spec, store=store)
        assert result.cached == spec.num_jobs and result.executed == 0
        assert store_bytes(store) == before


class TestEngineResultIdentity:
    def l2_trace(self, num_accesses=2_000):
        settings = fast_settings()
        return generate_l2_trace(
            get_profile("gcc"),
            settings.l2_config,
            num_accesses=num_accesses,
            seed=1,
        )

    def run_once(self, instrument, tmp_path, scheme="reap", segment_accesses=None):
        from equivalence_utils import build_cache

        trace = self.l2_trace()
        cache = build_cache(scheme)
        if instrument:
            with telemetry(tmp_path / "fast.jsonl"):
                return run_l2_trace(
                    cache, segmented(trace, segment_accesses), engine="fast"
                )
        return run_l2_trace(cache, segmented(trace, segment_accesses), engine="fast")

    @pytest.mark.parametrize(
        "segment_accesses", (None, 500), ids=("whole", "segmented")
    )
    def test_fast_engine_identical_with_telemetry_on(self, tmp_path, segment_accesses):
        from equivalence_utils import assert_results_equivalent

        plain = self.run_once(
            instrument=False, tmp_path=tmp_path, segment_accesses=segment_accesses
        )
        instrumented = self.run_once(
            instrument=True, tmp_path=tmp_path, segment_accesses=segment_accesses
        )
        assert_results_equivalent(plain, instrumented)

    def test_reference_engine_identical_with_telemetry_on(self, tmp_path):
        from equivalence_utils import assert_results_equivalent, build_cache

        trace = self.l2_trace(num_accesses=800)
        plain = run_l2_trace(build_cache("reap"), trace, engine="reference")
        with telemetry(tmp_path / "ref.jsonl"):
            instrumented = run_l2_trace(
                build_cache("reap"), trace, engine="reference"
            )
        assert_results_equivalent(plain, instrumented)

    def test_fast_matches_reference_while_instrumented(self, tmp_path):
        """The headline bit-identity guarantee holds *with telemetry on*."""
        from equivalence_utils import (
            assert_caches_equivalent,
            assert_results_equivalent,
            build_cache,
        )

        trace = self.l2_trace()
        with telemetry(tmp_path / "events.jsonl"):
            reference_cache = build_cache("reap")
            fast_cache = build_cache("reap")
            reference = run_l2_trace(reference_cache, trace, engine="reference")
            fast = run_l2_trace(fast_cache, trace, engine="fast")
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(reference_cache, fast_cache)
