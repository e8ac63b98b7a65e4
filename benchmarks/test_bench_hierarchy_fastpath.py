"""Bench: batched hierarchy engine (`run_cpu_trace`) vs. the reference loop.

Times both engines driving the full two-level paper hierarchy with the same
pre-generated CPU-level workload mix (a hot instruction loop, a pointer
chase and a streaming phase, randomly interleaved — the classic L1-filter
stressors) and reports CPU references/second.  The acceptance bar for the
batched hierarchy path is a >= 3x throughput advantage on this mix; the
assertion below uses a 2.5x floor so shared-CI timing noise cannot flake
the suite while still catching any real regression of the batched L1
filtering back toward per-record dispatch.

The numbers also feed the README's engine section.  Locally the fast path
measures ~4x the reference loop on the mix (the CPU path gains less than
the pure L2 replay because most references are L1 hits, which are already
cheap in the reference loop).
"""

from __future__ import annotations

import time

from conftest import bench_num_accesses, bench_settings
from repro.config import SimulationConfig
from repro.core import build_protected_cache
from repro.sim import run_cpu_trace
from repro.sim.soa import clear_kernel_memo
from repro.workloads import (
    hot_loop_trace,
    mixed_trace,
    pointer_chase_trace,
    sequential_trace,
)


def _build_cpu_mix(num_references: int):
    """The benchmark mix: loop + chase + stream, phase-interleaved."""
    return mixed_trace(
        "cpu-bench-mix",
        [
            hot_loop_trace(num_accesses=num_references // 2, seed=1),
            pointer_chase_trace(num_accesses=num_references // 4, seed=2),
            sequential_trace(
                num_accesses=num_references // 4, store_fraction=0.2, seed=3
            ),
        ],
        seed=4,
    )


def _run_mix(settings, trace, engine: str, schemes=("conventional", "reap")) -> float:
    """Drive the hierarchy under one engine; returns elapsed seconds."""
    config = SimulationConfig()
    start = time.perf_counter()
    for index, scheme in enumerate(schemes):
        cache = build_protected_cache(
            scheme,
            config.hierarchy.l2,
            p_cell=settings.p_cell,
            data_profile=settings.data_profile(index + 1),
            seed=index + 1,
        )
        # REAP would hit conventional's L1 and pass-1 memo entries, and a
        # repeated round every entry; time the whole kernel, L1 filter
        # included, so the floors keep measuring it.
        clear_kernel_memo()
        run_cpu_trace(cache, trace, config=config, seed=index + 1, engine=engine)
    return time.perf_counter() - start


def test_bench_hierarchy_fastpath_throughput(benchmark):
    """Benchmark the fast hierarchy engine; report both engines' rates."""
    num_references = min(bench_num_accesses(), 40_000)
    settings = bench_settings(num_accesses=num_references)
    trace = _build_cpu_mix(num_references)
    schemes = ("conventional", "reap")
    total_references = len(trace) * len(schemes)

    reference_s = _run_mix(settings, trace, "reference", schemes)
    fast_s = benchmark.pedantic(
        lambda: _run_mix(settings, trace, "fast", schemes), rounds=1, iterations=1
    )

    reference_rate = total_references / reference_s
    fast_rate = total_references / fast_s
    speedup = reference_s / fast_s
    benchmark.extra_info["reference_references_per_s"] = round(reference_rate)
    benchmark.extra_info["fast_references_per_s"] = round(fast_rate)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\n[hierarchy-fastpath] mix x {len(trace)} references x "
        f"{'+'.join(schemes)}: reference {reference_rate:,.0f} ref/s, "
        f"fast {fast_rate:,.0f} ref/s, speedup {speedup:.1f}x"
    )

    assert speedup >= 2.5, (
        f"hierarchy fast path only {speedup:.2f}x over the reference loop "
        f"(expected >= 3x nominally, 2.5x floor for CI noise)"
    )


def test_bench_hierarchy_fastpath_matches_reference_on_mix():
    """The throughput claim only counts if the results are identical."""
    settings = bench_settings(num_accesses=4_000)
    trace = _build_cpu_mix(4_000)
    config = SimulationConfig()
    for scheme in ("conventional", "reap", "scrubbing"):
        results = {}
        hierarchy_stats = {}
        for engine in ("reference", "fast"):
            cache = build_protected_cache(
                scheme,
                config.hierarchy.l2,
                p_cell=settings.p_cell,
                data_profile=settings.data_profile(1),
                seed=1,
            )
            result, hierarchy = run_cpu_trace(
                cache, trace, config=config, seed=1, engine=engine
            )
            results[engine] = result
            hierarchy_stats[engine] = vars(hierarchy.stats)
        assert results["reference"] == results["fast"], scheme
        assert hierarchy_stats["reference"] == hierarchy_stats["fast"], scheme
