"""Golden content-hash gate for the L2 trace generator.

Every stored campaign result and every artifact-cache key is derived from
``Trace.content_hash()`` of a generated trace, so the generator's output is
frozen: any change to it — a different RNG draw, a reordered merge, an
address composed differently — shows up here as a hash mismatch.  The table
in ``golden_trace_hashes.json`` covers all 24 SPEC profiles at two seeds on
two L2 geometries, two long traces, and a 3-tag-bit geometry whose tiny tag
space forces the fresh-tag wraparound.

To rebuild the table after a deliberate change to the generator's output
(which invalidates every stored result and artifact), run::

    PYTHONPATH=src python tests/workloads/test_golden_trace_hashes.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import CacheLevelConfig, paper_l2_config
from repro.workloads import SPEC_CPU2006_PROFILES, generate_l2_trace, get_profile
from repro.workloads.spec_profiles import SPECWorkloadProfile

TABLE_PATH = Path(__file__).with_name("golden_trace_hashes.json")

#: The L2 geometries the table covers, by name.
GEOMETRIES = {
    "paper-1MB": paper_l2_config(),
    # The 256 KB / 8-way L2 of the amortisation bench.
    "256KB-8way": CacheLevelConfig(
        name="L2",
        size_bytes=256 * 1024,
        associativity=8,
        block_size_bytes=64,
        technology="stt-mram",
    ),
    # 16 sets x 64 B blocks with a 13-bit address: 3 tag bits, so tags
    # 1..7 are usable and long churn streams wrap the fresh-tag counter.
    "tiny-3tagbit": CacheLevelConfig(
        name="L2",
        size_bytes=4 * 1024,
        associativity=4,
        block_size_bytes=64,
        address_bits=13,
    ),
}


def _tiny_profile(name: str, churn_miss_fraction: float) -> SPECWorkloadProfile:
    return SPECWorkloadProfile(
        name=name,
        write_fraction=0.2,
        stable_traffic_share=0.5,
        num_stable_sets=1,
        num_churn_sets=1,
        hot_lines_per_set=2,
        cold_lines_per_set=1,
        cold_gap_median=8.0,
        cold_gap_sigma=0.0,
        churn_miss_fraction=churn_miss_fraction,
        churn_reuse_window=3,
    )


#: Profiles that exist only for the tiny geometry.
TINY_PROFILES = {
    "tiny": _tiny_profile("tiny", 1.0),
    "tiny-reuse": _tiny_profile("tiny-reuse", 0.5),
}


def table_cases() -> list[tuple[str, str, int, int]]:
    """Every ``(profile, geometry, seed, accesses)`` the table pins."""
    cases = []
    for geometry in ("paper-1MB", "256KB-8way"):
        for profile in sorted(SPEC_CPU2006_PROFILES):
            for seed in (1, 2):
                cases.append((profile, geometry, seed, 5_000))
        for profile in ("gcc", "mcf"):
            cases.append((profile, geometry, 1, 50_000))
    for profile in sorted(TINY_PROFILES):
        for seed in (1, 2):
            cases.append((profile, "tiny-3tagbit", seed, 2_000))
    return cases


def case_key(profile: str, geometry: str, seed: int, accesses: int) -> str:
    return f"{profile}/{geometry}/seed{seed}/{accesses}"


def compute_hash(profile: str, geometry: str, seed: int, accesses: int) -> str:
    resolved = TINY_PROFILES.get(profile) or get_profile(profile)
    trace = generate_l2_trace(resolved, GEOMETRIES[geometry], accesses, seed=seed)
    return trace.content_hash()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(TABLE_PATH.read_text(encoding="utf-8"))


def test_table_covers_every_case(golden):
    assert sorted(golden) == sorted(case_key(*case) for case in table_cases())


@pytest.mark.parametrize(
    "case", table_cases(), ids=[case_key(*case) for case in table_cases()]
)
def test_generated_trace_matches_golden_hash(golden, case):
    assert compute_hash(*case) == golden[case_key(*case)]


if __name__ == "__main__":
    table = {case_key(*case): compute_hash(*case) for case in table_cases()}
    TABLE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} hashes to {TABLE_PATH}")
