"""Differential property: the SoA kernel equals the reference loop on generated traces.

The fixed grids in ``test_engine_equivalence.py`` replay realistic workloads
on one geometry.  This property draws the whole scenario instead — a tiny
geometry (1-8 sets, 1-4 ways), any built-in policy and any scheme, a short
L2 trace over a small tag space with same-set read storms mixed in, and
arbitrary segment cuts — and asserts the fast engine leaves exactly the
reference engine's result and cache state, field by field.  Tiny sets and
tag spaces force the corner cases the grids rarely reach: single-way sets,
one-set caches, immediate evictions, long concealed-read runs and segment
boundaries between any two accesses.  Each example is replayed on a second
fresh cache too, whose cold first segment is served from the pass-1 memo,
so the memo's hit path meets the same corner cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from equivalence_utils import (
    EQUIVALENCE_POLICIES,
    EQUIVALENCE_SCHEMES,
    assert_caches_equivalent,
    assert_results_equivalent,
    build_cache,
    run_both_engines,
    small_l2,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import run_l2_trace
from repro.telemetry import MemorySink, telemetry
from repro.workloads.trace import _KIND_INDEX, AccessKind

BLOCK_BYTES = 64
_READ = _KIND_INDEX[AccessKind.L2_READ]
_WRITE = _KIND_INDEX[AccessKind.L2_WRITE]


@dataclass(frozen=True)
class Scenario:
    num_sets: int
    assoc: int
    policy: str
    scheme: str
    records: tuple  # (is_write, set, tag) per access
    cuts: tuple  # ascending segment boundaries, strictly inside the trace
    ones_count: int | None  # None draws ones counts from a seeded profile
    scrub_rate: float | None  # patrol lines per access (scrubbing only)


class CutSource:
    """A trace source whose segments end at fixed, arbitrary cut points."""

    def __init__(self, scenario: Scenario) -> None:
        self.name = "generated"
        self._kinds = np.array(
            [_WRITE if is_write else _READ for is_write, _, _ in scenario.records],
            dtype=np.int8,
        )
        self._addresses = np.array(
            [
                (tag * scenario.num_sets + set_index) * BLOCK_BYTES
                for _, set_index, tag in scenario.records
            ],
            dtype=np.int64,
        )
        self._bounds = (0, *scenario.cuts, len(scenario.records))

    def __len__(self) -> int:
        return len(self._kinds)

    def segments(self, segment_accesses=None):
        for start, stop in zip(self._bounds, self._bounds[1:]):
            yield self._kinds[start:stop], self._addresses[start:stop]


@st.composite
def scenarios(draw) -> Scenario:
    num_sets = draw(st.sampled_from((1, 2, 4, 8)))
    policy = draw(st.sampled_from(EQUIVALENCE_POLICIES))
    # Tree PLRU needs a power-of-two way count.
    assoc = draw(st.sampled_from((1, 2, 4)) if policy == "plru" else st.integers(1, 4))
    scheme = draw(st.sampled_from(EQUIVALENCE_SCHEMES))
    set_st = st.integers(0, num_sets - 1)
    tag_st = st.integers(0, draw(st.integers(1, assoc + 3)) - 1)
    single = st.tuples(st.booleans(), set_st, tag_st).map(lambda access: [access])
    # A same-set read storm: many reads cycling over a few of one set's tags.
    storm = st.tuples(
        set_st, st.lists(tag_st, min_size=1, max_size=3), st.integers(2, 24)
    ).map(
        lambda s: [(False, s[0], s[1][index % len(s[1])]) for index in range(s[2])]
    )
    groups = draw(st.lists(st.one_of(single, storm), min_size=1, max_size=30))
    records = tuple(access for group in groups for access in group)
    cuts = draw(
        st.lists(st.integers(1, max(len(records) - 1, 1)), max_size=4, unique=True)
    )
    return Scenario(
        num_sets=num_sets,
        assoc=assoc,
        policy=policy,
        scheme=scheme,
        records=records,
        cuts=tuple(sorted(cut for cut in cuts if cut < len(records))),
        ones_count=draw(st.sampled_from((100, None))),
        scrub_rate=(
            draw(st.sampled_from((0.25, 0.5, 1.0, 2.5)))
            if scheme == "scrubbing"
            else None
        ),
    )


@settings(max_examples=250, deadline=None)
@given(scenario=scenarios())
@example(
    # LER under scrubbing takes the inline patrol walk (the victim choice
    # reads exposure), here across a cut inside a read storm.
    scenario=Scenario(
        num_sets=2,
        assoc=2,
        policy="ler",
        scheme="scrubbing",
        records=((True, 0, 0), *((False, 0, tag % 3) for tag in range(9)), (False, 1, 1)),
        cuts=(4,),
        ones_count=None,
        scrub_rate=0.5,
    )
)
def test_soa_equals_reference(scenario):
    config = small_l2(
        size_bytes=scenario.num_sets * scenario.assoc * BLOCK_BYTES,
        associativity=scenario.assoc,
        block_size_bytes=BLOCK_BYTES,
        replacement=scenario.policy,
    )
    extra = {}
    if scenario.scrub_rate is not None:
        extra["scrub_lines_per_access"] = scenario.scrub_rate
    reference_result, fast_result, reference_cache, fast_cache = run_both_engines(
        scenario.scheme,
        CutSource(scenario),
        config=config,
        ones_count=scenario.ones_count,
        **extra,
    )
    assert_results_equivalent(reference_result, fast_result)
    assert_caches_equivalent(reference_cache, fast_cache)

    memo_cache = build_cache(
        scenario.scheme, config=config, ones_count=scenario.ones_count, **extra
    )
    sink = MemorySink()
    with telemetry(sink):
        memo_result = run_l2_trace(memo_cache, CutSource(scenario), engine="fast")
    first_pass1 = next(e for e in sink.events if e["name"] == "kernel.pass1")
    assert first_pass1["memo"] == "hit"
    assert_results_equivalent(reference_result, memo_result)
    assert_caches_equivalent(reference_cache, memo_cache)
