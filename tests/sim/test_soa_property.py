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
fresh cache too, whose cold first segment takes both its pass-1 and its
exposure product from the kernel memo and runs only the apply step, so the
memo's hit path meets the same corner cases.

A second property mixes the cache's two homes for block state: a warm
prefix on the reference engine holds the sets it touched as objects, a
random subset of sets is then taken as objects through ``blocks_in_set``
with the block references kept, and the fast replay, which works on the
block columns, must leave exactly the reference state and show it through
the kept references.

A third property covers the CPU path: a generated CPU trace (instruction
fetches, loads and stores, any store fraction, same-block runs, sometimes
no instruction fetch at all) through tiny L1s (1-8 sets, 1-4 ways) under
any built-in L1 policy, over a small L2 under any scheme.  The fast
:func:`repro.sim.run_cpu_trace` must leave exactly the reference's L1
blocks, policy rows and statistics, hierarchy counters and L2 result, and
so must a second fast run on a fresh hierarchy, which takes its whole L1
filter from the kernel memo.
Its companion replays the L1 filter alone over L1s a reference prefix has
warmed, so victims are also lines the replay did not bring in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from equivalence_utils import (
    EQUIVALENCE_POLICIES,
    EQUIVALENCE_SCHEMES,
    RecordingL2,
    assert_caches_equivalent,
    assert_hierarchies_equivalent,
    assert_results_equivalent,
    build_cache,
    run_both_cpu_engines,
    run_both_engines,
    small_l2,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy
from repro.config import CacheLevelConfig, HierarchyConfig, SimulationConfig
from repro.sim import run_cpu_trace, run_l2_trace
from repro.sim.soa import filter_through_l1_soa
from repro.telemetry import MemorySink, telemetry
from repro.workloads.trace import _KIND_INDEX, AccessKind, Trace

BLOCK_BYTES = 64
_READ = _KIND_INDEX[AccessKind.L2_READ]
_WRITE = _KIND_INDEX[AccessKind.L2_WRITE]
_IFETCH = _KIND_INDEX[AccessKind.IFETCH]
_LOAD = _KIND_INDEX[AccessKind.LOAD]
_STORE = _KIND_INDEX[AccessKind.STORE]


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


def scenario_config(scenario: Scenario):
    """The scenario's cache geometry and extra cache-building arguments."""
    config = small_l2(
        size_bytes=scenario.num_sets * scenario.assoc * BLOCK_BYTES,
        associativity=scenario.assoc,
        block_size_bytes=BLOCK_BYTES,
        replacement=scenario.policy,
    )
    extra = {}
    if scenario.scrub_rate is not None:
        extra["scrub_lines_per_access"] = scenario.scrub_rate
    return config, extra


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
    config, extra = scenario_config(scenario)
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
    for phase in ("kernel.pass1", "kernel.pass2"):
        first = next(e for e in sink.events if e["name"] == phase)
        assert first["memo"] == "hit", phase
    assert_results_equivalent(reference_result, memo_result)
    assert_caches_equivalent(reference_cache, memo_cache)


@dataclass(frozen=True)
class MixedScenario:
    scenario: Scenario
    prefix: int  # leading records replayed on the reference engine first
    held: tuple  # sets then taken as objects, block references kept


@st.composite
def mixed_scenarios(draw) -> MixedScenario:
    scenario = draw(scenarios())
    return MixedScenario(
        scenario=scenario,
        prefix=draw(st.integers(0, len(scenario.records) - 1)),
        held=tuple(sorted(draw(st.sets(st.integers(0, scenario.num_sets - 1))))),
    )


def split_at(scenario: Scenario, prefix: int) -> tuple[Scenario, Scenario]:
    """The warm prefix and the replayed rest, the cuts kept inside the rest."""
    records = scenario.records
    return (
        replace(scenario, records=records[:prefix], cuts=()),
        replace(
            scenario,
            records=records[prefix:],
            cuts=tuple(cut - prefix for cut in scenario.cuts if cut > prefix),
        ),
    )


@settings(max_examples=200, deadline=None)
@given(mixed=mixed_scenarios())
@example(
    # A set the prefix and the caller hold: its fill count must enter the kernel.
    mixed=MixedScenario(
        scenario=Scenario(
            num_sets=1,
            assoc=1,
            policy="lru",
            scheme="conventional",
            records=((False, 0, 1), (True, 0, 0)),
            cuts=(),
            ones_count=100,
            scrub_rate=None,
        ),
        prefix=1,
        held=(0,),
    )
)
@example(
    # Held by the prefix only: the resident line must enter pass 1.
    mixed=MixedScenario(
        scenario=Scenario(
            num_sets=1,
            assoc=2,
            policy="lru",
            scheme="conventional",
            records=((False, 0, 1), (True, 0, 0)),
            cuts=(),
            ones_count=100,
            scrub_rate=None,
        ),
        prefix=1,
        held=(),
    )
)
@example(
    # Held by the prefix only: its exposure must enter pass 2.
    mixed=MixedScenario(
        scenario=Scenario(
            num_sets=1,
            assoc=1,
            policy="lru",
            scheme="conventional",
            records=((False, 0, 0), (False, 0, 1)),
            cuts=(),
            ones_count=100,
            scrub_rate=None,
        ),
        prefix=1,
        held=(),
    )
)
@example(
    # A set held before any access: the kept block must be updated in place.
    mixed=MixedScenario(
        scenario=Scenario(
            num_sets=1,
            assoc=1,
            policy="lru",
            scheme="conventional",
            records=((False, 0, 0),),
            cuts=(),
            ones_count=100,
            scrub_rate=None,
        ),
        prefix=0,
        held=(0,),
    )
)
@example(
    # A warm segment: the patrol visits a valid set the segment never accesses.
    mixed=MixedScenario(
        scenario=Scenario(
            num_sets=2,
            assoc=1,
            policy="lru",
            scheme="scrubbing",
            records=((False, 0, 0), (False, 0, 0), (False, 0, 0), (False, 1, 0)),
            cuts=(1, 2, 3),
            ones_count=100,
            scrub_rate=0.25,
        ),
        prefix=0,
        held=(),
    )
)
def test_soa_equals_reference_over_mixed_residency(mixed):
    scenario = mixed.scenario
    config, extra = scenario_config(scenario)
    warm, rest = split_at(scenario, mixed.prefix)
    reference_cache, fast_cache = (
        build_cache(
            scenario.scheme, config=config, ones_count=scenario.ones_count, **extra
        )
        for _ in range(2)
    )
    if warm.records:
        for cache in (reference_cache, fast_cache):
            run_l2_trace(cache, CutSource(warm), engine="reference")
    kept = {
        (set_index, way): block
        for set_index in mixed.held
        for way, block in enumerate(fast_cache.cache.blocks_in_set(set_index))
    }
    reference_result = run_l2_trace(
        reference_cache, CutSource(rest), engine="reference"
    )
    fast_result = run_l2_trace(fast_cache, CutSource(rest), engine="fast")
    assert_results_equivalent(reference_result, fast_result)
    for (set_index, way), block in kept.items():
        assert block is fast_cache.cache.blocks_in_set(set_index)[way]
        expected = reference_cache.cache.blocks_in_set(set_index)[way]
        assert block == expected, (set_index, way)
        assert block.last_access_tick == expected.last_access_tick, (set_index, way)
    assert_caches_equivalent(reference_cache, fast_cache)


@dataclass(frozen=True)
class CPUScenario:
    num_sets: int  # per L1
    assoc: int  # per L1
    l1_policy: str
    scheme: str  # of the L2
    records: tuple  # (kind index, block, byte offset) per reference


@st.composite
def cpu_scenarios(draw) -> CPUScenario:
    num_sets = draw(st.sampled_from((1, 2, 4, 8)))
    policy = draw(st.sampled_from(EQUIVALENCE_POLICIES))
    # Tree PLRU needs a power-of-two way count.
    assoc = draw(st.sampled_from((1, 2, 4)) if policy == "plru" else st.integers(1, 4))
    ifetch_percent = draw(st.sampled_from((0, 30, 100)))
    store_percent = draw(st.integers(0, 100))
    kind_st = st.tuples(st.integers(0, 99), st.integers(0, 99)).map(
        lambda rolls: (
            _IFETCH
            if rolls[0] < ifetch_percent
            else (_STORE if rolls[1] < store_percent else _LOAD)
        )
    )
    # A few more blocks than one set holds, spread over all sets.
    block_st = st.integers(0, num_sets * (assoc + 2) - 1)
    offset_st = st.sampled_from((0, 8, 63))
    single = st.tuples(kind_st, block_st, offset_st).map(lambda ref: [ref])
    # A same-block run: several references to one block in a row.
    run = st.tuples(
        block_st, st.lists(st.tuples(kind_st, offset_st), min_size=2, max_size=12)
    ).map(lambda r: [(kind, r[0], offset) for kind, offset in r[1]])
    groups = draw(st.lists(st.one_of(single, run), min_size=1, max_size=30))
    return CPUScenario(
        num_sets=num_sets,
        assoc=assoc,
        l1_policy=policy,
        scheme=draw(st.sampled_from(EQUIVALENCE_SCHEMES)),
        records=tuple(ref for group in groups for ref in group),
    )


def cpu_scenario_config(scenario: CPUScenario) -> SimulationConfig:
    """Tiny L1I/L1D of the scenario's geometry over an 8-set, 4-way L2.

    The L2 is as large as the largest L1 the scenarios draw, as the
    hierarchy requires, and small enough to evict too.
    """

    def l1(name: str) -> CacheLevelConfig:
        return CacheLevelConfig(
            name=name,
            size_bytes=scenario.num_sets * scenario.assoc * BLOCK_BYTES,
            associativity=scenario.assoc,
            block_size_bytes=BLOCK_BYTES,
            replacement=scenario.l1_policy,
        )

    l2 = small_l2(
        size_bytes=8 * 4 * BLOCK_BYTES, associativity=4, block_size_bytes=BLOCK_BYTES
    )
    return SimulationConfig(
        hierarchy=HierarchyConfig(l1i=l1("L1I"), l1d=l1("L1D"), l2=l2)
    )


def cpu_trace_of(scenario: CPUScenario) -> Trace:
    return Trace.from_columns(
        "generated-cpu",
        np.array([kind for kind, _, _ in scenario.records], dtype=np.int8),
        np.array(
            [block * BLOCK_BYTES + offset for _, block, offset in scenario.records],
            dtype=np.int64,
        ),
    )


@settings(max_examples=200, deadline=None)
@given(scenario=cpu_scenarios())
@example(
    # Stores only, no instruction fetch: every L1D victim is dirty and
    # each write-back's tag comes from the previous fill of its frame.
    scenario=CPUScenario(
        num_sets=1,
        assoc=2,
        l1_policy="lru",
        scheme="reap",
        records=tuple((_STORE, block % 3, 0) for block in range(7)),
    )
)
@example(
    # A same-block run under LER: the run's last reference is its recency
    # touch, and the L1's victim choice reads no exposure.
    scenario=CPUScenario(
        num_sets=1,
        assoc=2,
        l1_policy="ler",
        scheme="conventional",
        records=(
            (_LOAD, 0, 0),
            (_LOAD, 1, 0),
            (_STORE, 0, 8),
            (_LOAD, 0, 63),
            (_IFETCH, 2, 0),
            (_LOAD, 2, 0),
            (_LOAD, 1, 0),
        ),
    )
)
def test_cpu_path_equals_reference(scenario):
    trace = cpu_trace_of(scenario)
    sim_config = cpu_scenario_config(scenario)
    reference, fast, ref_h, fast_h, ref_cache, fast_cache = run_both_cpu_engines(
        scenario.scheme, trace, sim_config=sim_config
    )
    assert_results_equivalent(reference, fast)
    assert_hierarchies_equivalent(ref_h, fast_h)
    assert_caches_equivalent(ref_cache, fast_cache)
    # A second fresh hierarchy takes its whole L1 filter from the memo.
    again_cache = build_cache(
        scenario.scheme, config=sim_config.hierarchy.l2, ones_count=100
    )
    sink = MemorySink()
    with telemetry(sink):
        again, again_h = run_cpu_trace(
            again_cache, trace, config=sim_config, engine="fast"
        )
    assert [
        event["memo"] for event in sink.events if event["name"] == "kernel.l1_filter"
    ] == ["hit"]
    assert_results_equivalent(reference, again)
    assert_hierarchies_equivalent(ref_h, again_h)
    assert_caches_equivalent(ref_cache, again_cache)


def replay_reference(hierarchy: CacheHierarchy, records) -> None:
    issue = {
        _IFETCH: hierarchy.fetch_instruction,
        _LOAD: hierarchy.load,
        _STORE: hierarchy.store,
    }
    for kind, block, offset in records:
        issue[kind](block * BLOCK_BYTES + offset)


@settings(max_examples=150, deadline=None)
@given(scenario=cpu_scenarios(), data=st.data())
@example(
    # The prefix leaves a dirty line the replay evicts first: the write-back
    # tag is the one the line held when the replay started.
    scenario=CPUScenario(
        num_sets=1,
        assoc=1,
        l1_policy="lru",
        scheme="conventional",
        records=((_STORE, 0, 0), (_LOAD, 1, 0), (_STORE, 2, 0)),
    ),
    data=None,
)
def test_l1_filter_over_warm_l1s_equals_reference(scenario, data):
    prefix = (
        1 if data is None else data.draw(st.integers(0, len(scenario.records)))
    )
    config = cpu_scenario_config(scenario).hierarchy
    reference_l2, fast_l2 = RecordingL2(), RecordingL2()
    reference = CacheHierarchy(config, reference_l2, seed=3)
    fast = CacheHierarchy(config, fast_l2, seed=3)
    for hierarchy in (reference, fast):
        replay_reference(hierarchy, scenario.records[:prefix])
    replay_reference(reference, scenario.records[prefix:])
    rest = scenario.records[prefix:]
    # The CPU kind indices are the filter's codes (0 ifetch, 1 load, 2 store).
    cpu_codes = np.array([kind for kind, _, _ in rest], dtype=np.int8)
    addresses = np.array(
        [block * BLOCK_BYTES + offset for _, block, offset in rest], dtype=np.int64
    )
    l2_codes, l2_addresses, _ = filter_through_l1_soa(fast, cpu_codes, addresses)
    issued = list(zip(l2_codes.tolist(), l2_addresses.tolist()))
    assert fast_l2.requests + issued == reference_l2.requests
    assert_hierarchies_equivalent(reference, fast)
