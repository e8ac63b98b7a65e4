"""Tests for the trace-driven simulation engine."""

import pytest

from repro.config import CacheLevelConfig, SimulationConfig
from repro.core import DataValueProfile, ProtectionScheme, build_protected_cache
from repro.errors import SimulationError
from repro.sim import run_cpu_trace, run_l2_trace, simulated_time_for
from repro.telemetry import MemorySink, telemetry
from repro.workloads import (
    AccessKind,
    Trace,
    TraceRecord,
    generate_l2_trace,
    get_profile,
    hot_loop_trace,
)


def small_l2():
    return CacheLevelConfig(
        name="L2", size_bytes=256 * 1024, associativity=8, block_size_bytes=64,
        technology="stt-mram",
    )


def make_cache(scheme=ProtectionScheme.CONVENTIONAL):
    return build_protected_cache(
        scheme, small_l2(), p_cell=1e-8, data_profile=DataValueProfile.constant(100)
    )


class TestSimulatedTime:
    def test_scales_with_accesses(self):
        config = SimulationConfig()
        assert simulated_time_for(2_000, config) == pytest.approx(
            2 * simulated_time_for(1_000, config)
        )

    def test_rejects_negative(self):
        with pytest.raises(SimulationError):
            simulated_time_for(-1, SimulationConfig())

    def test_zero_accesses_is_zero_time(self):
        assert simulated_time_for(0, SimulationConfig()) == 0.0

    @pytest.mark.parametrize("rate", [0.0, -0.05])
    def test_rejects_non_positive_access_rate(self, rate):
        with pytest.raises(SimulationError):
            simulated_time_for(1_000, SimulationConfig(), accesses_per_cycle=rate)

    def test_custom_access_rate_scales_inversely(self):
        config = SimulationConfig()
        assert simulated_time_for(1_000, config, accesses_per_cycle=0.1) == (
            pytest.approx(0.5 * simulated_time_for(1_000, config, accesses_per_cycle=0.05))
        )


class TestRunL2Trace:
    def test_runs_generated_trace(self):
        trace = generate_l2_trace(get_profile("gcc"), small_l2(), num_accesses=3_000, seed=1)
        result = run_l2_trace(make_cache(), trace)
        assert result.num_accesses == 3_000
        assert result.workload == "gcc"
        assert result.scheme == "conventional"
        assert result.checked_reads > 0
        assert result.dynamic_energy_pj > 0
        assert result.expected_failures >= 0

    def test_leakage_optional(self):
        trace = generate_l2_trace(get_profile("gcc"), small_l2(), num_accesses=1_000, seed=1)
        with_leakage = run_l2_trace(make_cache(), trace, add_leakage=True)
        without = run_l2_trace(make_cache(), trace, add_leakage=False)
        assert with_leakage.leakage_energy_pj > 0
        assert without.leakage_energy_pj == 0

    @pytest.mark.parametrize("kind", [AccessKind.LOAD, AccessKind.STORE, AccessKind.IFETCH])
    @pytest.mark.parametrize("engine", ["reference", "fast", "auto"])
    def test_rejects_cpu_level_records(self, kind, engine):
        trace = Trace(name="cpu", records=[TraceRecord(kind, 0x0)])
        with pytest.raises(SimulationError, match="expects L2-level records"):
            run_l2_trace(make_cache(), trace, engine=engine)

    def test_rejects_unknown_engine(self):
        trace = Trace(name="l2", records=[TraceRecord(AccessKind.L2_READ, 0x0)])
        with pytest.raises(SimulationError, match="unknown engine"):
            run_l2_trace(make_cache(), trace, engine="warp")

    def test_fast_engine_rejects_unsupported_scheme(self):
        from repro.config import ReadPathMode
        from repro.core import ConventionalCache

        class CustomScheme(ConventionalCache):
            @classmethod
            def read_path_mode(cls):
                return ReadPathMode.PARALLEL

            @classmethod
            def scheme_name(cls):
                return "custom"

        trace = Trace(name="l2", records=[TraceRecord(AccessKind.L2_READ, 0x0)])
        custom = CustomScheme(
            small_l2(), p_cell=1e-8, data_profile=DataValueProfile.constant(100)
        )
        with pytest.raises(SimulationError, match="fast path does not support"):
            run_l2_trace(custom, trace, engine="fast")

    def test_fast_engine_supports_scrubbing_and_all_policies(self):
        from repro.sim import supports_fast_path

        scrubbing = build_protected_cache(
            ProtectionScheme.SCRUBBING, small_l2(), p_cell=1e-8,
            data_profile=DataValueProfile.constant(100),
        )
        assert supports_fast_path(scrubbing) == (True, "")

    def test_fast_engine_validates_before_mutating(self):
        """The fast path rejects a malformed trace before touching the cache."""
        trace = Trace(
            name="mixed",
            records=[
                TraceRecord(AccessKind.L2_READ, 0x1000),
                TraceRecord(AccessKind.LOAD, 0x2000),
            ],
        )
        cache = make_cache()
        with pytest.raises(SimulationError):
            run_l2_trace(cache, trace, engine="fast")
        assert cache.stats.accesses == 0
        assert cache.energy.dynamic_pj == 0.0

    def test_reference_engine_validates_as_it_goes(self):
        """The reference loop has replayed the valid prefix when it raises."""
        trace = Trace(
            name="mixed",
            records=[
                TraceRecord(AccessKind.L2_READ, 0x1000),
                TraceRecord(AccessKind.LOAD, 0x2000),
            ],
        )
        cache = make_cache()
        with pytest.raises(SimulationError):
            run_l2_trace(cache, trace, engine="reference")
        assert cache.stats.accesses == 1

    def test_default_engine_is_the_fast_path(self):
        trace = generate_l2_trace(get_profile("gcc"), small_l2(), num_accesses=500, seed=1)
        sink = MemorySink()
        with telemetry(sink):
            run_l2_trace(make_cache(), trace)
        engines = [e["engine"] for e in sink.events if e["name"] == "sim.engine"]
        assert engines == ["fast"]

    def test_mttf_property_consistent(self):
        trace = generate_l2_trace(get_profile("gcc"), small_l2(), num_accesses=2_000, seed=1)
        result = run_l2_trace(make_cache(), trace)
        assert result.mttf.expected_failures == pytest.approx(result.expected_failures)
        assert result.failure_rate_per_access >= 0


class TestRunCpuTrace:
    def test_hierarchy_filters_l2_traffic(self):
        trace = hot_loop_trace(num_accesses=5_000, seed=1)
        cache = build_protected_cache(
            ProtectionScheme.CONVENTIONAL,
            SimulationConfig().hierarchy.l2,
            p_cell=1e-8,
            data_profile=DataValueProfile.constant(100),
        )
        sink = MemorySink()
        with telemetry(sink):
            result, hierarchy = run_cpu_trace(cache, trace)
        assert hierarchy.stats.total_references == 5_000
        # The L1s absorb most of the traffic.
        assert result.num_accesses < 5_000
        assert result.num_accesses == hierarchy.stats.l2_reads + hierarchy.stats.l2_writebacks
        # The default engine is the fast path.
        engines = [e["engine"] for e in sink.events if e["name"] == "sim.engine"]
        assert engines == ["fast"]

    def test_hierarchy_leakage_included_by_default(self):
        trace = hot_loop_trace(num_accesses=2_000, seed=1)

        def build():
            return build_protected_cache(
                ProtectionScheme.CONVENTIONAL,
                SimulationConfig().hierarchy.l2,
                p_cell=1e-8,
                data_profile=DataValueProfile.constant(100),
            )

        with_leakage, _ = run_cpu_trace(build(), trace)
        without, _ = run_cpu_trace(build(), trace, add_leakage=False)
        assert with_leakage.leakage_energy_pj > 0
        assert without.leakage_energy_pj == 0

    @pytest.mark.parametrize("engine", ["reference", "fast", "auto"])
    def test_engine_choices_accepted(self, engine):
        trace = hot_loop_trace(num_accesses=1_000, seed=2)
        cache = build_protected_cache(
            ProtectionScheme.REAP,
            SimulationConfig().hierarchy.l2,
            p_cell=1e-8,
            data_profile=DataValueProfile.constant(100),
        )
        result, hierarchy = run_cpu_trace(cache, trace, engine=engine)
        assert hierarchy.stats.total_references == 1_000
        assert result.scheme == "reap"

    def test_rejects_unknown_engine(self):
        trace = hot_loop_trace(num_accesses=10, seed=1)
        cache = build_protected_cache(
            ProtectionScheme.CONVENTIONAL,
            SimulationConfig().hierarchy.l2,
            p_cell=1e-8,
        )
        with pytest.raises(SimulationError, match="unknown engine"):
            run_cpu_trace(cache, trace, engine="warp")

    @pytest.mark.parametrize("kind", [AccessKind.L2_READ, AccessKind.L2_WRITE])
    def test_rejects_l2_level_records(self, kind):
        trace = Trace(name="l2", records=[TraceRecord(kind, 0x0)])
        cache = build_protected_cache(
            ProtectionScheme.CONVENTIONAL,
            SimulationConfig().hierarchy.l2,
            p_cell=1e-8,
        )
        with pytest.raises(SimulationError, match="expects CPU-level records"):
            run_cpu_trace(cache, trace)


class TestAddLeakage:
    def test_public_hook_adds_leakage_energy(self):
        cache = make_cache()
        assert cache.energy.leakage_pj == 0.0
        cache.add_leakage(1e-3)
        expected = cache.energy_model.leakage_power_mw() * 1e-3 * 1e-3 * 1e12
        assert cache.energy.leakage_pj == pytest.approx(expected)
        cache.add_leakage(1e-3)
        assert cache.energy.leakage_pj == pytest.approx(2 * expected)

    def test_zero_interval_is_a_no_op(self):
        cache = make_cache()
        cache.add_leakage(0.0)
        assert cache.energy.leakage_pj == 0.0

    def test_negative_interval_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_cache().add_leakage(-1.0)

    def test_run_l2_trace_uses_the_hook(self):
        trace = generate_l2_trace(get_profile("gcc"), small_l2(), num_accesses=500, seed=1)
        config = SimulationConfig()
        cache = make_cache()
        result = run_l2_trace(cache, trace, config=config)
        expected = (
            cache.energy_model.leakage_power_mw()
            * 1e-3
            * simulated_time_for(500, config)
            * 1e12
        )
        assert result.leakage_energy_pj == pytest.approx(expected)
