"""Differential-equivalence harness: batched fast path vs. reference loop.

The fast engine in :mod:`repro.sim.fastpath` is only allowed to exist
because it is *numerically indistinguishable* from the per-record reference
loop.  This module is the contract: it sweeps every fast-path scheme across
SPEC-profile and synthetic workloads, every built-in replacement policy,
both trace levels (L2 and CPU/hierarchy) and multiple seeds — with the fast
L2 replay run whole and in ragged segments — and asserts field-by-field
equality of

* the :class:`~repro.sim.SchemeRunResult` snapshot (ints exact, floats to
  1e-12 relative),
* the :class:`~repro.reliability.AccumulationTracker` samples,
* the cache / reliability / energy statistics,
* the per-block cache state (tags, dirty bits, exposure counters, ticks),
* the per-set replacement-policy state (compact exports) and, for the
  hierarchy runs, the :class:`~repro.cache.hierarchy.HierarchyStatistics`
  and the full L1I/L1D contents.

Any drift between the engines — a re-ordered float addition, a missed
counter, an off-by-one exposure window, a diverged patrol cursor — fails
here before it can bias the paper's figures.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.cache.replacement import BUILTIN_POLICIES, LRUPolicy
from repro.config import ReadPathMode
from repro.core import ConventionalCache
from repro.errors import SimulationError
from repro.sim import (
    run_cpu_trace,
    run_l2_trace,
    supports_fast_path,
)
from repro.telemetry import MemorySink, telemetry
from repro.workloads import (
    ARTIFACT_CACHE_ENV,
    AccessKind,
    Trace,
    TraceRecord,
    generate_l2_trace,
    get_profile,
    hot_loop_trace,
    mixed_trace,
    pointer_chase_trace,
    sequential_trace,
)

from equivalence_utils import (
    EQUIVALENCE_POLICIES,
    EQUIVALENCE_SCHEMES,
    assert_caches_equivalent,
    assert_hierarchies_equivalent,
    assert_results_equivalent,
    build_cache,
    interleaved_l2,
    over_fast_segmenting,
    run_both_cpu_engines,
    run_both_engines,
    segmented,
    small_hierarchy_config,
    small_l2,
)

WORKLOADS = ("gcc", "mcf", "namd")
SEEDS = (1, 7)
TRACE_LENGTH = 3_000


def profile_trace(workload: str, seed: int, config=None, length=TRACE_LENGTH) -> Trace:
    return generate_l2_trace(
        get_profile(workload), config or small_l2(), num_accesses=length, seed=seed
    )


def cpu_trace(seed: int, length: int = 4_000) -> Trace:
    """A phase-mixed CPU-level workload with stores and reuse."""
    return mixed_trace(
        f"cpu-mix-{seed}",
        [
            hot_loop_trace(
                num_accesses=length // 2, data_bytes=8 * 1024, seed=seed
            ),
            pointer_chase_trace(
                num_accesses=length // 4, num_nodes=96, seed=seed + 1
            ),
            sequential_trace(
                num_accesses=length // 4, store_fraction=0.3, seed=seed + 2
            ),
        ],
        seed=seed + 3,
    )


class TestSchemeWorkloadSeedSweep:
    """The headline sweep: schemes x workloads x seeds."""

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", SEEDS)
    @over_fast_segmenting
    def test_engines_match(self, scheme, workload, seed, segment_accesses):
        trace = profile_trace(workload, seed)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            scheme, trace, seed=seed, segment_accesses=segment_accesses
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @over_fast_segmenting
    def test_restore_and_scheme_extras(self, scheme, segment_accesses):
        trace = profile_trace("h264ref", 3)
        _, _, ref_cache, fast_cache = run_both_engines(
            scheme, trace, seed=3, segment_accesses=segment_accesses
        )
        if scheme == "restore":
            assert ref_cache.restore_count == fast_cache.restore_count
            assert (
                ref_cache.restore_expected_failures
                == fast_cache.restore_expected_failures
            )
        if scheme == "scrubbing":
            assert ref_cache.scrubbed_lines == fast_cache.scrubbed_lines
        assert ref_cache.expected_failures == pytest.approx(
            fast_cache.expected_failures, rel=1e-12
        )


class TestReplacementPolicyMatrix:
    """Scheme x replacement-policy coverage over the compact state."""

    @pytest.mark.parametrize("policy", EQUIVALENCE_POLICIES)
    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @over_fast_segmenting
    def test_all_schemes_all_policies(self, scheme, policy, segment_accesses):
        config = small_l2(replacement=policy)
        trace = profile_trace("mcf", 5, config=config)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            scheme, trace, config=config, seed=5, segment_accesses=segment_accesses
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize("policy", EQUIVALENCE_POLICIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @over_fast_segmenting
    def test_policies_across_seeds(self, policy, seed, segment_accesses):
        config = small_l2(replacement=policy)
        trace = profile_trace("gcc", seed, config=config)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            "reap", trace, config=config, seed=seed, segment_accesses=segment_accesses
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize("policy", ("random", "ler"))
    @over_fast_segmenting
    def test_stateful_policies_on_warm_cache(self, policy, segment_accesses):
        """Sequential runs continue the policy stream/tick identically."""
        config = small_l2(replacement=policy)
        first = profile_trace("gcc", 8, config=config, length=1_500)
        second = profile_trace("mcf", 9, config=config, length=1_500)
        ref_cache = build_cache("conventional", config=config, seed=8)
        fast_cache = build_cache("conventional", config=config, seed=8)
        run_l2_trace(ref_cache, first, engine="reference")
        run_l2_trace(fast_cache, segmented(first, segment_accesses), engine="fast")
        reference = run_l2_trace(ref_cache, second, engine="reference")
        fast = run_l2_trace(
            fast_cache, segmented(second, segment_accesses), engine="fast"
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)


class TestScrubbingScheme:
    """The patrol scrubber's cursor/credit replay, across rates."""

    @pytest.mark.parametrize("rate", (0.1, 0.25, 1 / 3, 1.0, 2.5))
    @over_fast_segmenting
    def test_scrub_rates(self, rate, segment_accesses):
        trace = profile_trace("xalancbmk", 6)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            "scrubbing",
            trace,
            seed=6,
            scrub_lines_per_access=rate,
            segment_accesses=segment_accesses,
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)
        assert ref_cache.scrubbed_lines > 0

    @over_fast_segmenting
    def test_zero_rate_never_scrubs(self, segment_accesses):
        trace = profile_trace("gcc", 2, length=1_000)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            "scrubbing",
            trace,
            seed=2,
            scrub_lines_per_access=0.0,
            segment_accesses=segment_accesses,
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)
        assert fast_cache.scrubbed_lines == 0

    @over_fast_segmenting
    def test_warm_cache_continues_patrol(self, segment_accesses):
        """The cursor and fractional credit survive across segments."""
        first = profile_trace("gcc", 10, length=1_200)
        second = profile_trace("namd", 11, length=1_200)
        ref_cache = build_cache("scrubbing", seed=10, scrub_lines_per_access=0.7)
        fast_cache = build_cache("scrubbing", seed=10, scrub_lines_per_access=0.7)
        run_l2_trace(ref_cache, first, engine="reference")
        run_l2_trace(fast_cache, segmented(first, segment_accesses), engine="fast")
        reference = run_l2_trace(ref_cache, second, engine="reference")
        fast = run_l2_trace(
            fast_cache, segmented(second, segment_accesses), engine="fast"
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)


class TestHierarchyTraces:
    """run_cpu_trace equivalence: HierarchyStatistics and L1 contents too."""

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    def test_cpu_traces_all_schemes(self, scheme):
        trace = cpu_trace(seed=1)
        reference, fast, ref_h, fast_h, ref_cache, fast_cache = run_both_cpu_engines(
            scheme, trace, seed=1
        )
        assert_results_equivalent(reference, fast)
        assert_hierarchies_equivalent(ref_h, fast_h)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize("l1_policy", EQUIVALENCE_POLICIES)
    def test_cpu_traces_l1_policies(self, l1_policy):
        sim_config = small_hierarchy_config(l1_replacement=l1_policy)
        trace = cpu_trace(seed=2)
        reference, fast, ref_h, fast_h, ref_cache, fast_cache = run_both_cpu_engines(
            "reap", trace, sim_config=sim_config, seed=2
        )
        assert_results_equivalent(reference, fast)
        assert_hierarchies_equivalent(ref_h, fast_h)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize("l2_policy", ("fifo", "ler"))
    def test_cpu_traces_l2_policies(self, l2_policy):
        sim_config = small_hierarchy_config(
            l2_config=small_l2(replacement=l2_policy)
        )
        trace = cpu_trace(seed=3)
        reference, fast, ref_h, fast_h, ref_cache, fast_cache = run_both_cpu_engines(
            "conventional", trace, sim_config=sim_config, seed=3
        )
        assert_results_equivalent(reference, fast)
        assert_hierarchies_equivalent(ref_h, fast_h)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    def test_artifact_cache_env_does_not_touch_the_cpu_path(
        self, scheme, tmp_path, monkeypatch
    ):
        """The artifact cache holds L2 traces only: a fast CPU run with
        ``REPRO_ARTIFACT_CACHE`` set writes nothing there and still matches
        the reference loop."""
        cache_dir = tmp_path / "artifacts"
        cache_dir.mkdir()
        monkeypatch.setenv(ARTIFACT_CACHE_ENV, str(cache_dir))
        sim_config = small_hierarchy_config()
        trace = cpu_trace(seed=5, length=2_000)
        ref_cache = build_cache(scheme, config=sim_config.hierarchy.l2, seed=5)
        fast_cache = build_cache(scheme, config=sim_config.hierarchy.l2, seed=5)
        reference, ref_h = run_cpu_trace(
            ref_cache, trace, config=sim_config, seed=5, engine="reference"
        )
        fast, fast_h = run_cpu_trace(
            fast_cache, trace, config=sim_config, seed=5, engine="fast"
        )
        assert list(cache_dir.iterdir()) == []
        assert_results_equivalent(reference, fast)
        assert_hierarchies_equivalent(ref_h, fast_h)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize(
        "add_leakage", (True, False), ids=("leakage", "no-leakage")
    )
    def test_both_engines_share_the_epilogue(self, add_leakage):
        """One time base, leakage step and snapshot serve both engines: the
        result counts realised L2 requests over one cycle per CPU reference."""
        sim_config = small_hierarchy_config()
        trace = cpu_trace(seed=6, length=2_000)
        runs = {}
        for engine in ("reference", "fast"):
            cache = build_cache("reap", config=sim_config.hierarchy.l2, seed=6)
            result, hierarchy = run_cpu_trace(
                cache,
                trace,
                config=sim_config,
                seed=6,
                add_leakage=add_leakage,
                engine=engine,
            )
            assert result.simulated_time_s == len(trace) * sim_config.cycle_time_s
            assert result.num_accesses == (
                hierarchy.stats.l2_reads + hierarchy.stats.l2_writebacks
            )
            assert (result.leakage_energy_pj > 0) is add_leakage
            runs[engine] = (result, hierarchy, cache)
        (reference, ref_h, ref_cache), (fast, fast_h, fast_cache) = (
            runs["reference"],
            runs["fast"],
        )
        assert_results_equivalent(reference, fast)
        assert_hierarchies_equivalent(ref_h, fast_h)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize(
        "engine, replay_spans",
        (
            ("reference", ["reference.replay"]),
            ("fast", ["kernel.decode", "kernel.l1_filter", "kernel.decode"]),
        ),
        ids=("reference", "fast"),
    )
    def test_replay_step_spans(self, engine, replay_spans):
        """The replay step is the only part that differs between engines:
        the fast step decodes the CPU stream, filters it through the L1s
        and decodes the realised L2 stream, each under its own span."""
        sim_config = small_hierarchy_config()
        cache = build_cache("reap", config=sim_config.hierarchy.l2)
        sink = MemorySink()
        with telemetry(sink):
            run_cpu_trace(
                cache, cpu_trace(seed=1, length=1_000), config=sim_config, engine=engine
            )
        engines = [
            (e["engine"], e["path"]) for e in sink.events if e["name"] == "sim.engine"
        ]
        assert engines == [(engine, "cpu")]
        names = [
            e["name"]
            for e in sink.events
            if e.get("kind") == "span"
            and e["name"] in ("reference.replay", "kernel.decode", "kernel.l1_filter")
        ]
        assert names == replay_spans

    @pytest.mark.parametrize(
        "fault", ("l2-read-record", "l2-write-record", "custom-scheme")
    )
    def test_fast_step_refuses_before_any_mutation(self, fault):
        """The fast step checks the L2 scheme before it emits anything, and
        the record kinds before it filters or replays anything."""
        from repro.core import DataValueProfile

        sim_config = small_hierarchy_config()
        records = [TraceRecord(AccessKind.LOAD, 0x1000)]
        if fault == "custom-scheme":
            cache = _CustomScheme(
                config=sim_config.hierarchy.l2,
                p_cell=1e-8,
                data_profile=DataValueProfile.constant(100),
                seed=1,
            )
            match = "fast path does not support"
        else:
            kind = {
                "l2-read-record": AccessKind.L2_READ,
                "l2-write-record": AccessKind.L2_WRITE,
            }[fault]
            records.append(TraceRecord(kind, 0x2000))
            cache = build_cache("reap", config=sim_config.hierarchy.l2)
            match = "expects CPU-level records"
        sink = MemorySink()
        with telemetry(sink), pytest.raises(SimulationError, match=match):
            run_cpu_trace(
                cache,
                Trace(name="bad", records=records),
                config=sim_config,
                engine="fast",
            )
        assert cache.stats.accesses == 0
        assert cache.energy.dynamic_pj == 0.0
        names = [e["name"] for e in sink.events]
        assert "kernel.l1_filter" not in names
        assert ("sim.engine" in names) is (fault != "custom-scheme")

    def test_cpu_trace_leakage_optional(self):
        sim_config = small_hierarchy_config()
        trace = cpu_trace(seed=4, length=1_000)
        with_leakage = build_cache("reap", config=sim_config.hierarchy.l2, seed=4)
        without = build_cache("reap", config=sim_config.hierarchy.l2, seed=4)
        result_with, _ = run_cpu_trace(
            with_leakage, trace, config=sim_config, seed=4, engine="fast"
        )
        result_without, _ = run_cpu_trace(
            without,
            trace,
            config=sim_config,
            seed=4,
            add_leakage=False,
            engine="fast",
        )
        assert result_with.leakage_energy_pj > 0
        assert result_without.leakage_energy_pj == 0

    def test_cpu_trace_validates_before_mutating(self):
        sim_config = small_hierarchy_config()
        trace = Trace(
            name="mixed",
            records=[
                TraceRecord(AccessKind.LOAD, 0x1000),
                TraceRecord(AccessKind.L2_READ, 0x2000),
            ],
        )
        cache = build_cache("reap", config=sim_config.hierarchy.l2)
        with pytest.raises(Exception, match="expects CPU-level records"):
            run_cpu_trace(cache, trace, config=sim_config, engine="fast")
        assert cache.stats.accesses == 0
        assert cache.energy.dynamic_pj == 0.0


class TestConfigurationVariants:
    """Non-default configurations exercise every fast-path branch."""

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @over_fast_segmenting
    def test_interleaved_multi_lane_ecc(self, scheme, segment_accesses):
        config = interleaved_l2()
        trace = profile_trace("namd", 2, config=config)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            scheme, trace, config=config, seed=2, segment_accesses=segment_accesses
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @over_fast_segmenting
    def test_writeback_checks_counted(self, scheme, segment_accesses):
        trace = profile_trace("xalancbmk", 4)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            scheme,
            trace,
            seed=4,
            count_writeback_checks=True,
            segment_accesses=segment_accesses,
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)

    @over_fast_segmenting
    def test_stochastic_data_profile(self, segment_accesses):
        trace = profile_trace("gcc", 5)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            "reap", trace, seed=5, ones_count=None, segment_accesses=segment_accesses
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)

    @over_fast_segmenting
    def test_tracking_disabled(self, segment_accesses):
        trace = profile_trace("mcf", 6)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            "conventional",
            trace,
            seed=6,
            track_accumulation=False,
            segment_accesses=segment_accesses,
        )
        assert ref_cache.tracker is None and fast_cache.tracker is None
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)

    @over_fast_segmenting
    def test_empty_trace(self, segment_accesses):
        trace = Trace(name="empty")
        reference, fast, ref_cache, fast_cache = run_both_engines(
            "reap", trace, segment_accesses=segment_accesses
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)
        assert fast.num_accesses == 0

    @over_fast_segmenting
    def test_sequential_runs_on_warm_cache(self, segment_accesses):
        """A second trace on an already-driven cache continues identically."""
        first = profile_trace("gcc", 8, length=1_500)
        second = profile_trace("mcf", 9, length=1_500)
        ref_cache = build_cache("reap", seed=8)
        fast_cache = build_cache("reap", seed=8)
        run_l2_trace(ref_cache, first, engine="reference")
        run_l2_trace(fast_cache, segmented(first, segment_accesses), engine="fast")
        reference = run_l2_trace(ref_cache, second, engine="reference")
        fast = run_l2_trace(
            fast_cache, segmented(second, segment_accesses), engine="fast"
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize(
        "first_engine, second_engine", (("fast", "reference"), ("reference", "fast"))
    )
    def test_engines_interchangeable_mid_stream(self, first_engine, second_engine):
        """Fast and reference segments can be freely mixed on one cache."""
        first = profile_trace("namd", 10, length=1_500)
        second = profile_trace("namd", 11, length=1_500)
        mixed_cache = build_cache("conventional", seed=10)
        reference_cache = build_cache("conventional", seed=10)
        run_l2_trace(mixed_cache, first, engine=first_engine)
        mixed = run_l2_trace(mixed_cache, second, engine=second_engine)
        run_l2_trace(reference_cache, first, engine="reference")
        pure = run_l2_trace(reference_cache, second, engine="reference")
        assert_results_equivalent(pure, mixed)
        assert_caches_equivalent(reference_cache, mixed_cache)


class _CustomScheme(ConventionalCache):
    """A scheme subclass the fast path must refuse (unknown behaviour)."""

    @classmethod
    def read_path_mode(cls):
        return ReadPathMode.PARALLEL

    @classmethod
    def scheme_name(cls):
        return "custom"


class TestAutoEngine:
    """``engine="auto"`` uses the fast path when it can, falls back when not."""

    def test_auto_matches_reference_for_supported_scheme(self):
        trace = profile_trace("gcc", 1)
        ref_cache = build_cache("reap", seed=1)
        auto_cache = build_cache("reap", seed=1)
        reference = run_l2_trace(ref_cache, trace, engine="reference")
        auto = run_l2_trace(auto_cache, trace, engine="auto")
        assert_results_equivalent(reference, auto)

    def test_auto_covers_scrubbing_and_every_policy(self):
        scrubbing = build_cache("scrubbing", seed=1)
        assert supports_fast_path(scrubbing)[0] is True
        for policy in EQUIVALENCE_POLICIES:
            cache = build_cache(
                "conventional", config=small_l2(replacement=policy), seed=1
            )
            assert supports_fast_path(cache)[0] is True, policy

    def test_auto_falls_back_for_custom_scheme_with_warning(self):
        from repro.core import DataValueProfile

        trace = profile_trace("gcc", 1, length=500)
        cache = _CustomScheme(
            config=small_l2(),
            p_cell=1e-8,
            data_profile=DataValueProfile.constant(100),
            seed=1,
        )
        supported, reason = supports_fast_path(cache)
        assert supported is False
        assert "custom" in reason
        with pytest.warns(RuntimeWarning, match="fell back to the reference loop"):
            result = run_l2_trace(cache, trace, engine="auto")
        assert result.num_accesses == 500

    def test_auto_falls_back_for_overridden_policy_hooks(self):
        from repro.cache.replacement import LRUPolicy

        class TweakedLRU(LRUPolicy):
            def on_access(self, set_index, way):  # bypasses compact state
                super().on_access(set_index, way)

        cache = build_cache("conventional", seed=1)
        cache.cache._replacement = TweakedLRU(  # noqa: SLF001 - test rigging
            cache.cache.num_sets, cache.cache.associativity
        )
        supported, reason = supports_fast_path(cache)
        assert supported is False
        assert "TweakedLRU" in reason

    def test_auto_cpu_trace_matches_reference(self):
        sim_config = small_hierarchy_config()
        trace = cpu_trace(seed=5, length=1_500)
        ref_cache = build_cache("conventional", config=sim_config.hierarchy.l2, seed=5)
        auto_cache = build_cache("conventional", config=sim_config.hierarchy.l2, seed=5)
        reference, ref_h = run_cpu_trace(
            ref_cache, trace, config=sim_config, seed=5, engine="reference"
        )
        auto, auto_h = run_cpu_trace(
            auto_cache, trace, config=sim_config, seed=5, engine="auto"
        )
        assert_results_equivalent(reference, auto)
        assert_hierarchies_equivalent(ref_h, auto_h)


def _with_policy(cache, policy_class):
    """Swap a cache's replacement policy for a freshly-built ``policy_class``."""
    substrate = cache.cache
    substrate._replacement = policy_class(  # noqa: SLF001 - test rigging
        substrate.num_sets, substrate.associativity
    )
    return cache


class _PositionRedeclaringLRU(LRUPolicy):
    """An LRU subclass that re-declares its parent's SoA mode."""

    soa_mode = "position"


class _MRUPolicy(LRUPolicy):
    """Evicts the most recently used way by overriding ``compact_victim``.

    The fast path would replay it as LRU if it trusted the inherited
    position mode, whose fused victim shortcut ignores the override.
    """

    def compact_victim(self, global_state, set_state, unchecked_reads):
        return max(range(len(set_state)), key=list(set_state).__getitem__)


#: Policies outside the fast path's exact-type gate: an unchanged subclass
#: of every built-in, a subclass re-declaring its mode, and an override.
_NON_BUILTIN_POLICIES = (
    *(type(f"Plain{cls.__name__}", (cls,), {}) for cls in BUILTIN_POLICIES),
    _PositionRedeclaringLRU,
    _MRUPolicy,
)


class TestNonBuiltinPoliciesTakeTheReferenceLoop:
    """The fast path replays the five built-in policies as exact types only."""

    @pytest.mark.parametrize(
        "policy_class", _NON_BUILTIN_POLICIES, ids=lambda cls: cls.__name__
    )
    def test_rejected_by_fast_and_auto_matches_reference(self, policy_class):
        name = policy_class.__name__
        trace = profile_trace("mcf", 5, length=1_500)
        ref_cache = _with_policy(build_cache("reap", seed=5), policy_class)
        auto_cache = _with_policy(build_cache("reap", seed=5), policy_class)
        supported, reason = supports_fast_path(auto_cache)
        assert supported is False
        assert name in reason
        # Rejected before any state is touched (the equality below shows it).
        with pytest.raises(SimulationError, match=name):
            run_l2_trace(auto_cache, trace, engine="fast")
        reference = run_l2_trace(ref_cache, trace, engine="reference")
        with pytest.warns(RuntimeWarning, match="fell back to the reference loop"):
            auto = run_l2_trace(auto_cache, trace, engine="auto")
        assert_results_equivalent(reference, auto)
        assert_caches_equivalent(ref_cache, auto_cache)


class TestFallbackWarningOncePerCallSite:
    """The stdlib warnings registry deduplicates ``engine="auto"`` fallbacks."""

    def test_one_warning_and_one_event_per_fallback(self):
        from repro.core import DataValueProfile
        from repro.telemetry import MemorySink, telemetry

        trace = profile_trace("gcc", 1, length=300)
        cache = _CustomScheme(
            config=small_l2(),
            p_cell=1e-8,
            data_profile=DataValueProfile.constant(100),
            seed=1,
        )
        sink = MemorySink()
        with warnings.catch_warnings(record=True) as caught, telemetry(sink):
            warnings.simplefilter("default")
            for _ in range(3):
                run_l2_trace(cache, trace, engine="auto")
        fallback_warnings = [
            caught_warning
            for caught_warning in caught
            if "fell back to the reference loop" in str(caught_warning.message)
        ]
        assert len(fallback_warnings) == 1
        # The warning points at the caller's line, not into the engine.
        assert fallback_warnings[0].filename == __file__
        fallback_events = [
            event for event in sink.events if event["name"] == "engine.fallback"
        ]
        assert len(fallback_events) == 3


class TestRandomizedTraces:
    """Seeded property-style tests over short random traces.

    Random address streams hit corner cases the structured generators do
    not: repeated read-write interleavings of one block, immediate
    re-eviction, full-set thrash, reads of never-written addresses.
    """

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @pytest.mark.parametrize("seed", (11, 12, 13))
    @over_fast_segmenting
    def test_random_trace_equivalence(self, scheme, seed, segment_accesses):
        rng = random.Random(seed)
        config = small_l2()
        # A tight footprint (few sets, few tags) maximises conflicts.
        num_sets = config.num_sets
        records = []
        for _ in range(2_000):
            kind = AccessKind.L2_WRITE if rng.random() < 0.3 else AccessKind.L2_READ
            set_index = rng.randrange(min(num_sets, 8))
            tag = rng.randrange(12)
            address = (tag << (config.offset_bits + config.index_bits)) | (
                set_index << config.offset_bits
            )
            records.append(TraceRecord(kind, address))
        trace = Trace(name=f"random-{seed}", records=records)

        reference, fast, ref_cache, fast_cache = run_both_engines(
            scheme, trace, seed=seed, segment_accesses=segment_accesses
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)
        # The satellite contract spelled out explicitly:
        assert reference.hit_rate == fast.hit_rate
        assert reference.checked_reads == fast.checked_reads
        assert reference.concealed_reads == fast.concealed_reads
        assert reference.dynamic_energy_pj == pytest.approx(
            fast.dynamic_energy_pj, rel=1e-12
        )
        assert reference.leakage_energy_pj == pytest.approx(
            fast.leakage_energy_pj, rel=1e-12
        )

    @pytest.mark.parametrize("policy", EQUIVALENCE_POLICIES)
    @over_fast_segmenting
    def test_random_trace_policy_equivalence(self, policy, segment_accesses):
        rng = random.Random(31)
        config = small_l2(replacement=policy)
        records = []
        for _ in range(2_000):
            kind = AccessKind.L2_WRITE if rng.random() < 0.3 else AccessKind.L2_READ
            set_index = rng.randrange(min(config.num_sets, 4))
            tag = rng.randrange(14)
            address = (tag << (config.offset_bits + config.index_bits)) | (
                set_index << config.offset_bits
            )
            records.append(TraceRecord(kind, address))
        trace = Trace(name=f"random-{policy}", records=records)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            "conventional",
            trace,
            config=config,
            seed=31,
            segment_accesses=segment_accesses,
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)

    @pytest.mark.parametrize("seed", (21, 22))
    @over_fast_segmenting
    def test_random_wide_address_space(self, seed, segment_accesses):
        """Sparse random addresses (mostly misses) stay equivalent too."""
        rng = random.Random(seed)
        records = [
            TraceRecord(
                AccessKind.L2_WRITE if rng.random() < 0.5 else AccessKind.L2_READ,
                rng.randrange(1 << 32),
            )
            for _ in range(1_500)
        ]
        trace = Trace(name=f"sparse-{seed}", records=records)
        reference, fast, ref_cache, fast_cache = run_both_engines(
            "conventional", trace, seed=seed, segment_accesses=segment_accesses
        )
        assert_results_equivalent(reference, fast)
        assert_caches_equivalent(ref_cache, fast_cache)
