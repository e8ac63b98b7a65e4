"""Bench: the fast path (SoA kernel) vs. the reference loop.

Times the reference per-record loop and the fast path replaying the same
pre-generated traces over the default Fig. 5 workload mix (the paper's four
Fig. 3 workloads: a churn-heavy, a balanced, and two reuse-heavy profiles)
and reports accesses/second.

Two guards:

* the mix test keeps the historical fast-vs-reference bar (>= 2x floor for
  CI noise; the fast path measures ~15x locally);
* the consolidated per-scheme test writes ``BENCH_fastpath.json``
  (reference vs fast throughput per scheme, uploaded as a CI artifact so
  the trajectory is visible across commits) and fails when the fast path
  regresses below the recorded floors in ``benchmarks/fastpath_floors.json``.

Locally the fast path measures ~15-18x the reference loop on the mix (reap
over LRU); serial gains the least, since its reference loop reads only the
hit way.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import bench_num_accesses, bench_settings
from repro.core import build_protected_cache
from repro.sim import run_l2_trace
from repro.workloads import FIGURE3_WORKLOADS, generate_l2_trace, get_profile

#: The default Fig. 5 workload mix used for the throughput comparison.
MIX = tuple(FIGURE3_WORKLOADS)

#: Schemes covered by the consolidated per-scheme comparison.
TIER_SCHEMES = ("conventional", "reap", "serial", "restore", "scrubbing")

_FLOORS_PATH = Path(__file__).with_name("fastpath_floors.json")


def _build_traces(num_accesses: int):
    settings = bench_settings(num_accesses=num_accesses)
    return settings, [
        generate_l2_trace(
            get_profile(name), settings.l2_config, num_accesses, seed=index + 1
        )
        for index, name in enumerate(MIX)
    ]


def _run_mix(settings, traces, engine: str, scheme: str = "reap") -> float:
    """Replay the whole mix under one engine; returns elapsed seconds."""
    start = time.perf_counter()
    for index, trace in enumerate(traces):
        cache = build_protected_cache(
            scheme,
            settings.l2_config,
            p_cell=settings.p_cell,
            data_profile=settings.data_profile(index + 1),
            seed=index + 1,
        )
        run_l2_trace(cache, trace, engine=engine)
    return time.perf_counter() - start


def test_bench_fastpath_throughput(benchmark):
    """Benchmark the fast engine and report both engines' accesses/sec."""
    num_accesses = min(bench_num_accesses(), 20_000)
    settings, traces = _build_traces(num_accesses)
    total_accesses = num_accesses * len(traces)

    reference_s = _run_mix(settings, traces, "reference")
    fast_s = benchmark.pedantic(
        lambda: _run_mix(settings, traces, "fast"), rounds=1, iterations=1
    )

    reference_rate = total_accesses / reference_s
    fast_rate = total_accesses / fast_s
    speedup = reference_s / fast_s
    benchmark.extra_info["reference_accesses_per_s"] = round(reference_rate)
    benchmark.extra_info["fast_accesses_per_s"] = round(fast_rate)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\n[fastpath] mix={'+'.join(MIX)} x {num_accesses} accesses: "
        f"reference {reference_rate:,.0f} acc/s, fast {fast_rate:,.0f} acc/s, "
        f"speedup {speedup:.1f}x"
    )

    assert speedup >= 2.0, (
        f"fast path only {speedup:.2f}x over the reference loop "
        f"(expected >= 3x nominally, 2x floor for CI noise)"
    )


def test_bench_schemes_consolidated():
    """Reference vs fast-path throughput, per scheme.

    Writes ``BENCH_fastpath.json`` next to the working directory (CI uploads
    it as an artifact) and enforces the recorded floors: the fast path must
    stay ahead of the reference loop by at least the per-scheme ratios in
    ``benchmarks/fastpath_floors.json``.

    The default trace length is capped at 20k accesses per workload so the
    ten reference-loop mix replays stay affordable in CI; an explicit
    ``REPRO_BENCH_ACCESSES`` wins over the cap.
    """
    if "REPRO_BENCH_ACCESSES" in os.environ:
        num_accesses = bench_num_accesses()
    else:
        num_accesses = min(bench_num_accesses(), 20_000)
    settings, traces = _build_traces(num_accesses)
    total_accesses = num_accesses * len(traces)
    floors = json.loads(_FLOORS_PATH.read_text())

    # Warm the decode caches so both engines see identical per-run work.
    _run_mix(settings, traces, "fast", TIER_SCHEMES[0])

    report: dict[str, dict[str, float]] = {}
    failures = []
    for scheme in TIER_SCHEMES:
        timings = {
            label: min(_run_mix(settings, traces, label, scheme) for _ in range(2))
            for label in ("reference", "fast")
        }
        entry = {
            "reference_accesses_per_s": round(total_accesses / timings["reference"]),
            "soa_accesses_per_s": round(total_accesses / timings["fast"]),
            "soa_over_reference": round(timings["reference"] / timings["fast"], 2),
        }
        report[scheme] = entry
        print(
            f"\n[schemes] {scheme}: "
            f"reference {entry['reference_accesses_per_s']:,} acc/s, "
            f"soa {entry['soa_accesses_per_s']:,} acc/s "
            f"({entry['soa_over_reference']}x reference)"
        )
        floor = floors["soa_over_reference"][scheme]
        if entry["soa_over_reference"] < floor:
            failures.append(
                f"{scheme}: soa_over_reference {entry['soa_over_reference']} "
                f"< floor {floor}"
            )

    output = Path("BENCH_fastpath.json")
    output.write_text(
        json.dumps(
            {
                "mix": list(MIX),
                "accesses_per_workload": num_accesses,
                "schemes": report,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"[schemes] wrote {output.resolve()}")
    assert not failures, "SoA kernel regressed below recorded floors: " + "; ".join(
        failures
    )


def test_bench_fastpath_matches_reference_on_mix():
    """The throughput claim only counts if the results are identical."""
    settings, traces = _build_traces(2_000)
    for index, trace in enumerate(traces):
        results = {}
        for engine in ("reference", "fast"):
            cache = build_protected_cache(
                "conventional",
                settings.l2_config,
                p_cell=settings.p_cell,
                data_profile=settings.data_profile(index + 1),
                seed=index + 1,
            )
            results[engine] = run_l2_trace(cache, trace, engine=engine)
        assert results["reference"] == results["fast"], trace.name
