"""Golden content-hash gate for the CPU-level trace generators.

The hierarchy benches and tests replay traces built by the generators in
:mod:`repro.workloads.synthetic`, so their output is frozen the same way the
L2 generator's is: any change to the RNG calls, their order, or how an
address or kind is composed shows up here as a hash mismatch.  The table in
``golden_cpu_trace_hashes.json`` covers each generator at its default
arguments and at a non-default point, at two seeds, plus ``mixed_trace``
over the three-component mix the hierarchy bench replays.

To rebuild the table after a deliberate change to a generator's output,
run::

    PYTHONPATH=src python tests/workloads/test_golden_cpu_trace_hashes.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.workloads import (
    hot_loop_trace,
    mixed_trace,
    pointer_chase_trace,
    sequential_trace,
    strided_trace,
)

TABLE_PATH = Path(__file__).with_name("golden_cpu_trace_hashes.json")

SEEDS = (1, 2)


def _mix(seed: int, num_references: int = 6_000):
    """Hot loop + pointer chase + streaming with 20% stores, interleaved."""
    return mixed_trace(
        "mix",
        [
            hot_loop_trace(num_accesses=num_references // 2, seed=seed),
            pointer_chase_trace(num_accesses=num_references // 4, seed=seed + 1),
            sequential_trace(
                num_accesses=num_references // 4, store_fraction=0.2, seed=seed + 2
            ),
        ],
        seed=seed + 3,
    )


#: Case name -> builder taking the seed.
BUILDERS = {
    "sequential/default": lambda seed: sequential_trace(seed=seed),
    "sequential/stores": lambda seed: sequential_trace(
        num_accesses=3_000, stride_bytes=64, store_fraction=0.3, seed=seed
    ),
    "strided/default": lambda seed: strided_trace(seed=seed),
    "strided/small-array": lambda seed: strided_trace(
        num_accesses=3_000, stride_bytes=192, array_bytes=4_096, seed=seed
    ),
    "pointer-chase/default": lambda seed: pointer_chase_trace(seed=seed),
    "pointer-chase/small-pool": lambda seed: pointer_chase_trace(
        num_accesses=3_000, num_nodes=17, node_bytes=128, seed=seed
    ),
    "hot-loop/default": lambda seed: hot_loop_trace(seed=seed),
    "hot-loop/ragged": lambda seed: hot_loop_trace(
        num_accesses=3_001, loads_per_iteration=3, stores_per_iteration=2, seed=seed
    ),
    "hot-loop/fetch-only": lambda seed: hot_loop_trace(
        num_accesses=500, loads_per_iteration=0, stores_per_iteration=0, seed=seed
    ),
    "mixed/bench-mix": _mix,
}


def table_cases() -> list[tuple[str, int]]:
    """Every ``(case, seed)`` the table pins."""
    return [(case, seed) for case in BUILDERS for seed in SEEDS]


def case_key(case: str, seed: int) -> str:
    return f"{case}/seed{seed}"


def compute_hash(case: str, seed: int) -> str:
    return BUILDERS[case](seed).content_hash()


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
