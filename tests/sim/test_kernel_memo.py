"""The kernel memo: a repeated cold-start replay shares its L1, pass-1 and exposure products.

:func:`repro.sim.soa.replay_l2_soa` serves pass 1 and the exposure half of
pass 2 of a cold cache (untouched substrate, every energy total 0.0) from
one small process-local memo.  The pass-1 product is keyed by everything
pass 1 reads; the exposure product by that key plus everything the exposure
pass reads.  The apply step, which alone reads ``p_cell``, the ECC strength
and the interleaving lanes, runs on every replay.  On the CPU path,
:func:`repro.sim.soa.filter_through_l1_soa` serves the whole L1 filter of a
cold hierarchy (both L1s untouched, every hierarchy counter 0) from the
same memo, keyed by both L1 geometries and policy states and the CPU
columns.  These tests pin that a hit leaves exactly the reference engine's
state, that the keys separate what must differ, and that warm starts always
run every pass.  The ``memo`` field of the ``kernel.l1_filter``,
``kernel.pass1`` and ``kernel.pass2`` spans reports each outcome.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from equivalence_utils import (
    EQUIVALENCE_POLICIES,
    EQUIVALENCE_SCHEMES,
    RecordingL2,
    assert_caches_equivalent,
    assert_hierarchies_equivalent,
    assert_results_equivalent,
    build_cache,
    segmented,
    small_hierarchy_config,
    small_l2,
)

from repro.cache import CacheHierarchy
from repro.config import ECCConfig, ECCKind
from repro.core import DataValueProfile, build_protected_cache
from repro.sim import run_cpu_trace, run_l2_trace, soa
from repro.sim.fastpath import _decode_arrays, _decode_cpu
from repro.telemetry import MemorySink, telemetry
from repro.workloads import (
    generate_l2_trace,
    get_profile,
    hot_loop_trace,
    mixed_trace,
    pointer_chase_trace,
    sequential_trace,
)
from repro.workloads.trace import Trace

#: Cache-building options whose exposure products must differ.
OPTIONS = {
    "default": {},
    "untracked": {"track_accumulation": False},
    "writeback-checks": {"count_writeback_checks": True},
}


@pytest.fixture(autouse=True)
def empty_memo():
    soa.clear_kernel_memo()
    yield
    soa.clear_kernel_memo()


@pytest.fixture(scope="module")
def trace():
    return generate_l2_trace(get_profile("mcf"), small_l2(), 3000, seed=3)


def memo_outcomes(sink: MemorySink, name: str = "kernel.pass1") -> list[str]:
    """The ``memo`` field of every ``name`` span, in order."""
    return [event["memo"] for event in sink.events if event["name"] == name]


def both_outcomes(sink: MemorySink) -> list[tuple[str, str]]:
    """Per replayed segment: the (pass-1, pass-2) memo outcomes."""
    return list(
        zip(memo_outcomes(sink, "kernel.pass1"), memo_outcomes(sink, "kernel.pass2"))
    )


def replay(scheme: str, trace, policy: str = "lru", seed: int = 1, options=None, **kwargs):
    """Replay ``trace`` on a fresh fast-path cache; returns (result, cache, pass-1 outcomes)."""
    result, cache, sink = replay_traced(scheme, trace, policy, seed, options, **kwargs)
    return result, cache, memo_outcomes(sink)


def replay_traced(
    scheme: str, trace, policy: str = "lru", seed: int = 1, options=None, **kwargs
):
    """As :func:`replay`, returning the telemetry sink instead of outcomes."""
    cache = build_cache(
        scheme,
        config=small_l2(replacement=policy),
        seed=seed,
        ones_count=None,
        **(options or {}),
    )
    sink = MemorySink()
    with telemetry(sink):
        result = run_l2_trace(cache, trace, engine="fast", **kwargs)
    return result, cache, sink


def reference(scheme: str, trace, policy: str = "lru", seed: int = 1, options=None):
    cache = build_cache(
        scheme,
        config=small_l2(replacement=policy),
        seed=seed,
        ones_count=None,
        **(options or {}),
    )
    return run_l2_trace(cache, trace, engine="reference"), cache


def assert_equals_reference(result, cache, reference_run) -> None:
    reference_result, reference_cache = reference_run
    assert_results_equivalent(reference_result, result)
    assert_caches_equivalent(reference_cache, cache)


def memo_kinds() -> list[str]:
    return [key[0] for key in soa._kernel_memo]


@pytest.mark.parametrize("option", OPTIONS)
@pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
@pytest.mark.parametrize("policy", EQUIVALENCE_POLICIES)
def test_second_cold_replay_hits_and_equals_reference(trace, policy, scheme, option):
    options = OPTIONS[option]
    expected = reference(scheme, trace, policy, options=options)
    first_result, first_cache, first = replay_traced(scheme, trace, policy, options=options)
    second_result, second_cache, second = replay_traced(
        scheme, trace, policy, options=options
    )
    assert both_outcomes(first) == [("miss", "miss")]
    assert both_outcomes(second) == [("hit", "hit")]
    assert_equals_reference(first_result, first_cache, expected)
    assert_equals_reference(second_result, second_cache, expected)


def test_pass1_is_shared_across_schemes_without_exposure(trace):
    assert replay("conventional", trace)[2] == ["miss"]
    for scheme in ("reap", "serial", "restore"):
        _, _, sink = replay_traced(scheme, trace)
        # Each scheme derives its own exposure product from the shared pass 1.
        assert both_outcomes(sink) == [("hit", "miss")], scheme
    # The patrol scrubber adds its own visit log: a separate entry.
    assert replay("scrubbing", trace)[2] == ["miss"]
    assert replay("scrubbing", trace)[2] == ["hit"]


def test_products_are_shared_across_pcell_points(trace):
    config = small_l2()
    outcomes = []
    for p_cell in (1e-9, 1e-6):
        for scheme in ("conventional", "reap"):
            caches = [
                build_protected_cache(
                    scheme,
                    config,
                    p_cell=p_cell,
                    data_profile=DataValueProfile(block_bits=config.block_size_bits, seed=7),
                    seed=1,
                )
                for _ in range(2)
            ]
            reference_result = run_l2_trace(caches[0], trace, engine="reference")
            sink = MemorySink()
            with telemetry(sink):
                result = run_l2_trace(caches[1], trace, engine="fast")
            outcomes += both_outcomes(sink)
            assert_results_equivalent(reference_result, result)
            assert_caches_equivalent(caches[0], caches[1])
    assert outcomes == [
        ("miss", "miss"),
        ("hit", "miss"),
        ("hit", "hit"),
        ("hit", "hit"),
    ]


def test_sweep_keeps_two_pass1_and_one_exposure_entry_per_scheme(trace):
    """A p_cell sweep over four schemes replays each scheme's exposure once."""
    schemes = ("conventional", "reap", "restore", "scrubbing")
    config = small_l2()
    outcomes = []
    for p_cell in (1e-9, 1e-8, 1e-7):
        for scheme in schemes:
            cache = build_protected_cache(
                scheme,
                config,
                p_cell=p_cell,
                data_profile=DataValueProfile(block_bits=config.block_size_bits, seed=7),
                seed=1,
            )
            sink = MemorySink()
            with telemetry(sink):
                run_l2_trace(cache, trace, engine="fast")
            outcomes += memo_outcomes(sink, "kernel.pass2")
    assert outcomes == ["miss"] * 4 + ["hit"] * 8
    assert sorted(memo_kinds()) == ["exposure"] * 4 + ["pass1"] * 2


def exposure_product(trace, scheme: str, p_cell: float = 1e-8, ecc=None):
    """The exposure product of a cold replay, computed directly."""
    config = small_l2() if ecc is None else small_l2(ecc=ecc)
    cache = build_protected_cache(
        scheme,
        config,
        p_cell=p_cell,
        data_profile=DataValueProfile(block_bits=config.block_size_bits, seed=7),
        seed=1,
    )
    codes, set_indices, tags = _decode_arrays(cache, *trace.decoded())
    samples = cache.data_profile.sample_many(len(codes))
    functional = soa.functional_pass(
        cache.cache, codes, set_indices, tags, *soa._l2_pass1_inputs(cache)
    )
    return soa.exposure_pass(cache, codes, functional, samples), cache


def assert_products_equal(reference, other, label: str, exclude=()) -> None:
    for field in dataclasses.fields(reference):
        if field.name in exclude:
            continue
        expected = getattr(reference, field.name)
        actual = getattr(other, field.name)
        if isinstance(expected, np.ndarray):
            assert np.array_equal(expected, actual), f"{label}: {field.name} differs"
        else:
            assert expected == actual, f"{label}: {field.name} differs"


@pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
def test_exposure_product_is_independent_of_the_reliability_parameters(trace, scheme):
    reference_product, reference_cache = exposure_product(trace, scheme)
    # The product must carry checks, or the comparison is vacuous.
    assert reference_product.check_inverse.size > 0
    for p_cell in (1e-9, 1e-6, 3e-3):
        product, _ = exposure_product(trace, scheme, p_cell=p_cell)
        assert_products_equal(reference_product, product, f"p_cell={p_cell}")
    points = {(reference_cache.engine.correctable_errors, reference_cache.engine.interleaving_lanes)}
    for ecc in (
        ECCConfig(kind=ECCKind.NONE),
        ECCConfig(kind=ECCKind.INTERLEAVED_SECDED, interleaving_degree=4),
    ):
        product, cache = exposure_product(trace, scheme, ecc=ecc)
        points.add((cache.engine.correctable_errors, cache.engine.interleaving_lanes))
        # The ECC also sets the codec energies, and only those differ.
        assert_products_equal(
            reference_product, product, f"ecc={ecc.kind.value}", exclude=("energy",)
        )
    assert len(points) == 3  # three ECC strength and lane points


def test_exposure_key_separates_the_cache_options(trace):
    """Options the exposure pass reads make separate entries over one pass 1."""
    replay("reap", trace)
    for option, options in OPTIONS.items():
        if not options:
            continue
        expected = reference("reap", trace, options=options)
        result, cache, sink = replay_traced("reap", trace, options=options)
        assert both_outcomes(sink) == [("hit", "miss")], option
        assert_equals_reference(result, cache, expected)


def test_exposure_key_separates_the_energy_model(trace):
    """A different ECC changes the codec energies: a separate exposure entry."""
    interleaved = small_l2(
        ecc=ECCConfig(kind=ECCKind.INTERLEAVED_SECDED, interleaving_degree=4)
    )
    outcomes = []
    for config in (small_l2(), interleaved):
        caches = [build_cache("reap", config=config, ones_count=None) for _ in range(2)]
        reference_result = run_l2_trace(caches[0], trace, engine="reference")
        sink = MemorySink()
        with telemetry(sink):
            result = run_l2_trace(caches[1], trace, engine="fast")
        outcomes += both_outcomes(sink)
        assert_results_equivalent(reference_result, result)
        assert_caches_equivalent(caches[0], caches[1])
    assert outcomes == [("miss", "miss"), ("hit", "miss")]


def test_samples_make_distinct_exposure_entries(trace):
    """Distinct ones-count samples share pass 1 but not the exposure product."""
    outcomes = []
    for seed in (1, 2, 1):
        expected = reference("conventional", trace, seed=seed)
        cache = build_protected_cache(
            "conventional",
            small_l2(),
            p_cell=1e-8,
            data_profile=DataValueProfile(block_bits=small_l2().block_size_bits, seed=seed),
            seed=1,
        )
        sink = MemorySink()
        with telemetry(sink):
            result = run_l2_trace(cache, trace, engine="fast")
        outcomes += memo_outcomes(sink, "kernel.pass2")
        assert_equals_reference(result, cache, expected)
    assert outcomes == ["miss", "miss", "hit"]


def test_colliding_digests_are_confirmed_against_the_inputs(trace, monkeypatch):
    """A digest collision reads as a miss, never as a wrong product."""
    monkeypatch.setattr(soa, "_digest", lambda columns: b"")
    other = generate_l2_trace(get_profile("gcc"), small_l2(), 3000, seed=4)
    for replayed in (trace, other, trace):
        for seed in (1, 2):
            expected = reference("reap", replayed, seed=seed)
            result, cache, sink = replay_traced("reap", replayed, seed=seed)
            assert_equals_reference(result, cache, expected)
            # Every key collides with the previous replay's: only seed 2's
            # pass 1, over the same columns, can hit.
            pass1 = "miss" if seed == 1 else "hit"
            assert both_outcomes(sink) == [(pass1, "miss")]


@pytest.mark.parametrize(
    "first, second", (("conventional", "scrubbing"), ("scrubbing", "conventional"))
)
def test_ler_misses_across_schemes(trace, first, second):
    """LER's victim choice reads exposure, which the scheme shapes."""
    assert replay(first, trace, "ler")[2] == ["miss"]
    result, cache, outcomes = replay(second, trace, "ler")
    assert outcomes == ["miss"]
    assert_equals_reference(result, cache, reference(second, trace, "ler"))


def test_ler_misses_between_accumulating_and_reap_schemes(trace):
    assert replay("conventional", trace, "ler")[2] == ["miss"]
    assert replay("reap", trace, "ler")[2] == ["miss"]
    assert replay("conventional", trace, "ler")[2] == ["hit"]


def test_segments_after_the_first_bypass(trace):
    _, _, first = replay_traced("reap", segmented(trace, 701))
    result, cache, second = replay_traced("reap", segmented(trace, 701))
    assert both_outcomes(first) == [("miss", "miss")] + [("bypass", "bypass")] * 4
    assert both_outcomes(second) == [("hit", "hit")] + [("bypass", "bypass")] * 4
    assert_equals_reference(result, cache, reference("reap", trace))


def test_prefix_warmed_cache_bypasses(trace):
    replay("reap", trace)  # the whole trace is memoised from cold
    kinds, addresses = trace.decoded()
    prefix = Trace.from_columns("prefix", kinds[:500], addresses[:500])
    cache = build_cache("reap", config=small_l2(), ones_count=None)
    run_l2_trace(cache, prefix, engine="reference")
    sink = MemorySink()
    with telemetry(sink):
        run_l2_trace(cache, trace, engine="fast")
    assert both_outcomes(sink) == [("bypass", "bypass")]


def test_set_held_as_objects_bypasses(trace):
    """A set taken as objects leaves the energy at 0.0 but the cache touched."""
    replay("reap", trace)
    caches = [build_cache("reap", config=small_l2(), ones_count=None) for _ in range(2)]
    kept = caches[1].cache.blocks_in_set(0)
    assert not caches[1].cache.untouched()
    reference_result = run_l2_trace(caches[0], trace, engine="reference")
    sink = MemorySink()
    with telemetry(sink):
        result = run_l2_trace(caches[1], trace, engine="fast")
    assert both_outcomes(sink) == [("bypass", "bypass")]
    assert_results_equivalent(reference_result, result)
    assert_caches_equivalent(caches[0], caches[1])
    assert kept == caches[0].cache.blocks_in_set(0)


@pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
def test_leakage_charged_before_the_replay_bypasses(trace, scheme):
    """Leakage leaves the substrate untouched but the energy totals not at 0.0."""
    replay(scheme, trace)  # the whole trace is memoised from cold
    caches = [build_cache(scheme, config=small_l2(), ones_count=None) for _ in range(2)]
    for cache in caches:
        cache.add_leakage(1e-3)
        assert cache.cache.untouched()
    reference_result = run_l2_trace(caches[0], trace, engine="reference")
    sink = MemorySink()
    with telemetry(sink):
        result = run_l2_trace(caches[1], trace, engine="fast")
    assert both_outcomes(sink) == [("bypass", "bypass")]
    assert_results_equivalent(reference_result, result)
    assert_caches_equivalent(caches[0], caches[1])


def test_policies_make_distinct_pass1_entries(trace):
    for policy in EQUIVALENCE_POLICIES:
        result, cache, outcomes = replay("reap", trace, policy)
        assert outcomes == ["miss"], policy
        assert_equals_reference(result, cache, reference("reap", trace, policy))


def test_associativity_makes_distinct_pass1_entries():
    """Two geometries with one set count decode a trace to the same columns."""
    narrow = small_l2(size_bytes=32 * 1024, associativity=4)
    assert narrow.num_sets == small_l2().num_sets
    short = generate_l2_trace(get_profile("mcf"), small_l2(), 3000, seed=5)
    outcomes = []
    for config in (small_l2(), narrow):
        caches = [build_cache("reap", config=config, ones_count=None) for _ in range(2)]
        reference_result = run_l2_trace(caches[0], short, engine="reference")
        sink = MemorySink()
        with telemetry(sink):
            result = run_l2_trace(caches[1], short, engine="fast")
        outcomes += both_outcomes(sink)
        assert_results_equivalent(reference_result, result)
        assert_caches_equivalent(caches[0], caches[1])
    assert outcomes == [("miss", "miss"), ("miss", "miss")]


def test_random_seeds_make_distinct_entries(trace):
    assert replay("reap", trace, "random", seed=1)[2] == ["miss"]
    assert replay("reap", trace, "random", seed=2)[2] == ["miss"]
    assert memo_kinds().count("pass1") == 2
    products = [
        entry.value[0] for key, entry in soa._kernel_memo.items() if key[0] == "pass1"
    ]
    assert not np.array_equal(products[0].frames, products[1].frames)
    assert replay("reap", trace, "random", seed=2)[2] == ["hit"]


def test_memo_stays_within_its_cap():
    config = small_l2()
    for seed in range(1, soa.KERNEL_MEMO_ENTRIES):
        short = generate_l2_trace(get_profile("gcc"), config, 300, seed=seed)
        assert replay("conventional", short)[2] == ["miss"]
        # One pass-1 and one exposure entry per trace.
        assert len(soa._kernel_memo) == min(2 * seed, soa.KERNEL_MEMO_ENTRIES)
    # The oldest entries went first: the newest trace still hits.
    _, _, sink = replay_traced("conventional", short)
    assert both_outcomes(sink) == [("hit", "hit")]


def test_shared_products_reject_writes(trace):
    replay("restore", trace, options=OPTIONS["default"])
    entries = {key[0]: entry for key, entry in soa._kernel_memo.items()}
    functional = entries["pass1"].value[0]
    exposure = entries["exposure"].value
    assert exposure.restore_ones is not None and exposure.sample_ones is not None
    for product in (functional, exposure):
        for field in dataclasses.fields(product):
            value = getattr(product, field.name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError):
                    value[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            product.fills = np.zeros(1)
    for entry in entries.values():
        for column in entry.inputs:
            with pytest.raises(ValueError):
                column[0] = 0


def test_exposure_entry_shares_the_pass1_input_columns(trace):
    replay("conventional", trace)
    entries = {key[0]: entry for key, entry in soa._kernel_memo.items()}
    pass1_inputs = entries["pass1"].inputs
    exposure_inputs = entries["exposure"].inputs
    assert all(a is b for a, b in zip(pass1_inputs, exposure_inputs))
    assert len(exposure_inputs) == len(pass1_inputs) + 1  # plus the samples


@pytest.fixture(scope="module")
def cpu_trace():
    """A CPU mix whose stores make the small L1D write dirty victims back."""
    return mixed_trace(
        "cpu-memo-mix",
        [
            hot_loop_trace(num_accesses=1500, data_bytes=8 * 1024, seed=5),
            pointer_chase_trace(num_accesses=700, seed=6),
            sequential_trace(num_accesses=800, store_fraction=0.3, seed=7),
        ],
        seed=8,
    )


def cpu_reference(scheme: str, cpu_trace, sim_config, seed: int = 1):
    cache = build_cache(scheme, config=sim_config.hierarchy.l2)
    result, hierarchy = run_cpu_trace(
        cache, cpu_trace, config=sim_config, seed=seed, engine="reference"
    )
    return result, hierarchy, cache


def cpu_replay(scheme: str, cpu_trace, sim_config, seed: int = 1):
    """A fast CPU replay on a fresh hierarchy; returns (result, hierarchy, cache, sink)."""
    cache = build_cache(scheme, config=sim_config.hierarchy.l2)
    sink = MemorySink()
    with telemetry(sink):
        result, hierarchy = run_cpu_trace(
            cache, cpu_trace, config=sim_config, seed=seed, engine="fast"
        )
    return result, hierarchy, cache, sink


def assert_cpu_equals_reference(run, expected) -> None:
    result, hierarchy, cache = run[:3]
    reference_result, reference_hierarchy, reference_cache = expected
    assert_results_equivalent(reference_result, result)
    assert_hierarchies_equivalent(reference_hierarchy, hierarchy)
    assert_caches_equivalent(reference_cache, cache)


def l1_outcomes(run) -> list[str]:
    return memo_outcomes(run[3], "kernel.l1_filter")


def test_cpu_path_hits_and_equals_reference():
    sim_config = small_hierarchy_config()
    cpu_trace = hot_loop_trace(num_accesses=3000, data_bytes=8 * 1024, seed=5)
    expected = cpu_reference("reap", cpu_trace, sim_config)
    outcomes = []
    for _ in range(2):
        run = cpu_replay("reap", cpu_trace, sim_config)
        outcomes += [(l1, *l2) for l1, l2 in zip(l1_outcomes(run), both_outcomes(run[3]))]
        assert_cpu_equals_reference(run, expected)
    assert outcomes == [("miss", "miss", "miss"), ("hit", "hit", "hit")]


@pytest.mark.parametrize("scheme", ("conventional", "reap", "scrubbing"))
@pytest.mark.parametrize("policy", EQUIVALENCE_POLICIES)
def test_second_cold_cpu_replay_hits_the_l1_product(cpu_trace, policy, scheme):
    sim_config = small_hierarchy_config(l1_replacement=policy)
    expected = cpu_reference(scheme, cpu_trace, sim_config)
    # The stream must make the L1D write back, or the hit path is vacuous.
    assert expected[1].stats.l2_writebacks > 0
    first = cpu_replay(scheme, cpu_trace, sim_config)
    second = cpu_replay(scheme, cpu_trace, sim_config)
    assert (l1_outcomes(first), l1_outcomes(second)) == (["miss"], ["hit"])
    assert_cpu_equals_reference(first, expected)
    assert_cpu_equals_reference(second, expected)


def test_l2_schemes_share_one_l1_product(cpu_trace):
    """Nothing of the L2 enters the key: every scheme after the first hits."""
    sim_config = small_hierarchy_config()
    outcomes = []
    for scheme in EQUIVALENCE_SCHEMES:
        run = cpu_replay(scheme, cpu_trace, sim_config)
        outcomes += l1_outcomes(run)
        assert_cpu_equals_reference(run, cpu_reference(scheme, cpu_trace, sim_config))
    assert outcomes == ["miss"] + ["hit"] * (len(EQUIVALENCE_SCHEMES) - 1)
    assert memo_kinds().count("l1") == 1


def test_lru_l1_keys_ignore_the_driver_seed(cpu_trace):
    sim_config = small_hierarchy_config()
    outcomes = []
    for seed in (1, 2):
        run = cpu_replay("reap", cpu_trace, sim_config, seed=seed)
        outcomes += l1_outcomes(run)
        assert_cpu_equals_reference(
            run, cpu_reference("reap", cpu_trace, sim_config, seed=seed)
        )
    assert outcomes == ["miss", "hit"]


def test_random_l1_seeds_make_distinct_l1_entries(cpu_trace):
    sim_config = small_hierarchy_config(l1_replacement="random")
    outcomes = []
    for seed in (1, 2, 2):
        run = cpu_replay("conventional", cpu_trace, sim_config, seed=seed)
        outcomes += l1_outcomes(run)
        assert_cpu_equals_reference(
            run, cpu_reference("conventional", cpu_trace, sim_config, seed=seed)
        )
    assert outcomes == ["miss", "miss", "hit"]
    products = [
        entry.value for key, entry in soa._kernel_memo.items() if key[0] == "l1"
    ]
    assert len(products) == 2
    assert not np.array_equal(products[0].l1d.tag, products[1].l1d.tag)


def test_l1d_geometry_makes_distinct_l1_entries(cpu_trace):
    base = small_hierarchy_config()
    hierarchy = base.hierarchy
    wider = dataclasses.replace(
        base,
        hierarchy=dataclasses.replace(
            hierarchy, l1d=dataclasses.replace(hierarchy.l1d, associativity=2)
        ),
    )
    assert wider.hierarchy.l1d.num_sets != hierarchy.l1d.num_sets
    outcomes = []
    for sim_config in (base, wider):
        run = cpu_replay("reap", cpu_trace, sim_config)
        outcomes += l1_outcomes(run)
        assert_cpu_equals_reference(run, cpu_reference("reap", cpu_trace, sim_config))
    assert outcomes == ["miss", "miss"]


def replay_records(hierarchy: CacheHierarchy, codes, addresses) -> None:
    """The per-record hierarchy calls, over decoded CPU codes."""
    issue = (hierarchy.fetch_instruction, hierarchy.load, hierarchy.store)
    for code, address in zip(codes.tolist(), addresses.tolist()):
        issue[code](address)


def test_reference_warmed_l1s_bypass(cpu_trace):
    config = small_hierarchy_config().hierarchy
    codes, addresses = _decode_cpu(cpu_trace)
    cold = CacheHierarchy(config, RecordingL2(), seed=1)
    assert soa.filter_through_l1_soa(cold, codes, addresses)[2] == "miss"
    reference, fast = (CacheHierarchy(config, RecordingL2(), seed=1) for _ in range(2))
    for hierarchy in (reference, fast):
        replay_records(hierarchy, codes[:500], addresses[:500])
    replay_records(reference, codes, addresses)
    l2_codes, l2_addresses, outcome = soa.filter_through_l1_soa(fast, codes, addresses)
    assert outcome == "bypass"
    issued = list(zip(l2_codes.tolist(), l2_addresses.tolist()))
    assert fast.l2.requests + issued == reference.l2.requests
    assert_hierarchies_equivalent(reference, fast)


@pytest.mark.parametrize("policy", EQUIVALENCE_POLICIES)
def test_l1_hit_continues_like_the_reference(cpu_trace, policy):
    """A hit restores the ticks too: later references stamp the same recency."""
    config = small_hierarchy_config(l1_replacement=policy).hierarchy
    codes, addresses = _decode_cpu(cpu_trace)
    reference, missed, hit = (
        CacheHierarchy(config, RecordingL2(), seed=1) for _ in range(3)
    )
    replay_records(reference, codes, addresses)
    outcomes = [soa.filter_through_l1_soa(h, codes, addresses)[2] for h in (missed, hit)]
    assert outcomes == ["miss", "hit"]
    for hierarchy in (reference, missed, hit):
        replay_records(hierarchy, codes[:400], addresses[:400])
    assert_hierarchies_equivalent(reference, missed)
    assert_hierarchies_equivalent(reference, hit)


def test_nonzero_hierarchy_counters_bypass(cpu_trace):
    """Untouched L1s under counted traffic: the deltas add to the counters."""
    codes, addresses = _decode_cpu(cpu_trace)
    cold = CacheHierarchy(small_hierarchy_config().hierarchy, RecordingL2(), seed=1)
    soa.filter_through_l1_soa(cold, codes, addresses)
    counted = CacheHierarchy(small_hierarchy_config().hierarchy, RecordingL2(), seed=1)
    counted.stats.l2_reads = 7
    assert counted.l1i.untouched() and counted.l1d.untouched()
    assert soa.filter_through_l1_soa(counted, codes, addresses)[2] == "bypass"
    assert counted.stats.l2_reads == cold.stats.l2_reads + 7
    counted.stats.l2_reads -= 7
    assert_hierarchies_equivalent(cold, counted)


def test_colliding_l1_digests_are_confirmed_against_the_columns(cpu_trace, monkeypatch):
    """A digest collision reads as a miss, never as a wrong L1 product."""
    monkeypatch.setattr(soa, "_digest", lambda columns: b"")
    sim_config = small_hierarchy_config()
    other = hot_loop_trace(num_accesses=3000, data_bytes=8 * 1024, seed=9)
    outcomes = []
    for replayed in (cpu_trace, other, other, cpu_trace):
        run = cpu_replay("conventional", replayed, sim_config)
        outcomes += l1_outcomes(run)
        assert_cpu_equals_reference(
            run, cpu_reference("conventional", replayed, sim_config)
        )
    assert outcomes == ["miss", "miss", "hit", "miss"]


def test_l1_product_rejects_writes(cpu_trace):
    cpu_replay("reap", cpu_trace, small_hierarchy_config())
    (entry,) = [entry for key, entry in soa._kernel_memo.items() if key[0] == "l1"]
    product = entry.value
    for held in (product, product.l1i, product.l1d):
        for field in dataclasses.fields(held):
            value = getattr(held, field.name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError):
                    value[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            held.stats = ()
    assert product.l1d.touched_sets.size and product.l1d.rows.size
    for column in entry.inputs:
        with pytest.raises(ValueError):
            column[0] = 0


def test_l1_entry_holds_the_trace_addresses_without_a_copy(cpu_trace):
    """The trace's own address column is read-only and owns its data."""
    cpu_replay("reap", cpu_trace, small_hierarchy_config())
    (entry,) = [entry for key, entry in soa._kernel_memo.items() if key[0] == "l1"]
    assert entry.inputs[1] is cpu_trace.decoded()[1]


def test_writable_inputs_are_copied_into_the_entry(cpu_trace):
    """A caller's writable column is copied, so writing to it later cannot
    change what a hit is confirmed against."""
    codes, addresses = _decode_cpu(cpu_trace)
    writable = addresses.copy()
    hierarchy = CacheHierarchy(small_hierarchy_config().hierarchy, RecordingL2(), seed=1)
    soa.filter_through_l1_soa(hierarchy, codes, writable)
    (entry,) = [entry for key, entry in soa._kernel_memo.items() if key[0] == "l1"]
    assert entry.inputs[0] is codes
    assert entry.inputs[1] is not writable and not entry.inputs[1].flags.writeable
    np.testing.assert_array_equal(entry.inputs[1], addresses)


def test_memo_field_reads_miss_hit_bypass(trace):
    sink = MemorySink()
    with telemetry(sink):
        for _ in range(2):
            cache = build_cache("conventional", config=small_l2(), ones_count=None)
            run_l2_trace(cache, trace, engine="fast")
        run_l2_trace(cache, trace, engine="fast")  # now warm
    assert both_outcomes(sink) == [("miss", "miss"), ("hit", "hit"), ("bypass", "bypass")]


def test_concurrent_replays_share_the_memo_safely():
    """More threads than cores and entries than the cap, with fast switching."""
    config = small_l2()
    traces = [
        generate_l2_trace(get_profile("gcc"), config, 400, seed=seed)
        for seed in range(1, soa.KERNEL_MEMO_ENTRIES // 2 + 3)
    ]
    schemes = ("conventional", "reap", "scrubbing")
    expected = {
        (scheme, index): replay(scheme, trace)[0]
        for scheme in schemes
        for index, trace in enumerate(traces)
    }
    failures = []

    def work(offset: int) -> None:
        try:
            for round_index in range(3):
                for index in range(len(traces)):
                    index = (index + offset + round_index) % len(traces)
                    scheme = schemes[(offset + index) % len(schemes)]
                    result = replay(scheme, traces[index])[0]
                    if result != expected[(scheme, index)]:
                        failures.append((scheme, index))
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []
    assert len(soa._kernel_memo) <= soa.KERNEL_MEMO_ENTRIES
