"""The pass-1 memo: a repeated cold-start replay shares one functional product.

:func:`repro.sim.soa.memoised_functional_pass` serves pass 1 of a cold
(untouched) cache from a small process-local memo keyed by everything pass 1
reads.  These tests pin that a hit leaves exactly the reference engine's
state, that the key separates what must differ (LER's scheme, the patrol
scrubber, Random's seed) and that warm starts always run pass 1.  The
``memo`` field of the ``kernel.pass1`` span reports each outcome.
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
    assert_caches_equivalent,
    assert_hierarchies_equivalent,
    assert_results_equivalent,
    build_cache,
    small_hierarchy_config,
    small_l2,
)

from repro.core import DataValueProfile, build_protected_cache
from repro.sim import run_cpu_trace, run_l2_trace, soa
from repro.telemetry import MemorySink, telemetry
from repro.workloads import generate_l2_trace, get_profile, hot_loop_trace
from repro.workloads.trace import Trace


@pytest.fixture(autouse=True)
def empty_memo():
    soa.clear_pass1_memo()
    yield
    soa.clear_pass1_memo()


@pytest.fixture(scope="module")
def trace():
    return generate_l2_trace(get_profile("mcf"), small_l2(), 3000, seed=3)


def memo_outcomes(sink: MemorySink) -> list[str]:
    """The ``memo`` field of every ``kernel.pass1`` span, in order."""
    return [event["memo"] for event in sink.events if event["name"] == "kernel.pass1"]


def replay(scheme: str, trace, policy: str = "lru", seed: int = 1, **kwargs):
    """Replay ``trace`` on a fresh fast-path cache; returns (result, cache, memo outcomes)."""
    cache = build_cache(
        scheme, config=small_l2(replacement=policy), seed=seed, ones_count=None
    )
    sink = MemorySink()
    with telemetry(sink):
        result = run_l2_trace(cache, trace, engine="fast", **kwargs)
    return result, cache, memo_outcomes(sink)


def reference(scheme: str, trace, policy: str = "lru", seed: int = 1):
    cache = build_cache(
        scheme, config=small_l2(replacement=policy), seed=seed, ones_count=None
    )
    return run_l2_trace(cache, trace, engine="reference"), cache


@pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
@pytest.mark.parametrize("policy", EQUIVALENCE_POLICIES)
def test_second_cold_replay_hits_and_equals_reference(trace, policy, scheme):
    reference_result, reference_cache = reference(scheme, trace, policy)
    first_result, first_cache, first = replay(scheme, trace, policy)
    second_result, second_cache, second = replay(scheme, trace, policy)
    assert (first, second) == (["miss"], ["hit"])
    for result, cache in ((first_result, first_cache), (second_result, second_cache)):
        assert_results_equivalent(reference_result, result)
        assert_caches_equivalent(reference_cache, cache)


def test_product_is_shared_across_schemes_without_exposure(trace):
    assert replay("conventional", trace)[2] == ["miss"]
    for scheme in ("reap", "serial", "restore"):
        assert replay(scheme, trace)[2] == ["hit"], scheme
    # The patrol scrubber adds its own visit log: a separate entry.
    assert replay("scrubbing", trace)[2] == ["miss"]
    assert replay("scrubbing", trace)[2] == ["hit"]


def test_product_is_shared_across_pcell_points(trace):
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
            outcomes += memo_outcomes(sink)
            assert_results_equivalent(reference_result, result)
            assert_caches_equivalent(caches[0], caches[1])
    assert outcomes == ["miss", "hit", "hit", "hit"]


@pytest.mark.parametrize(
    "first, second", (("conventional", "scrubbing"), ("scrubbing", "conventional"))
)
def test_ler_misses_across_schemes(trace, first, second):
    """LER's victim choice reads exposure, which the scheme shapes."""
    assert replay(first, trace, "ler")[2] == ["miss"]
    result, cache, outcomes = replay(second, trace, "ler")
    assert outcomes == ["miss"]
    reference_result, reference_cache = reference(second, trace, "ler")
    assert_results_equivalent(reference_result, result)
    assert_caches_equivalent(reference_cache, cache)


def test_ler_misses_between_accumulating_and_reap_schemes(trace):
    assert replay("conventional", trace, "ler")[2] == ["miss"]
    assert replay("reap", trace, "ler")[2] == ["miss"]
    assert replay("conventional", trace, "ler")[2] == ["hit"]


def test_segments_after_the_first_bypass(trace):
    _, _, first = replay("reap", trace, segment_accesses=701)
    result, cache, second = replay("reap", trace, segment_accesses=701)
    assert len(first) == len(second) == 5
    assert first == ["miss"] + ["bypass"] * 4
    assert second == ["hit"] + ["bypass"] * 4
    reference_result, reference_cache = reference("reap", trace)
    assert_results_equivalent(reference_result, result)
    assert_caches_equivalent(reference_cache, cache)


def test_prefix_warmed_cache_bypasses(trace):
    replay("reap", trace)  # the whole trace is memoised from cold
    kinds, addresses = trace.decoded()
    prefix = Trace.from_columns("prefix", kinds[:500], addresses[:500])
    cache = build_cache("reap", config=small_l2(), ones_count=None)
    run_l2_trace(cache, prefix, engine="reference")
    sink = MemorySink()
    with telemetry(sink):
        run_l2_trace(cache, trace, engine="fast")
    assert memo_outcomes(sink) == ["bypass"]


def test_random_seeds_make_distinct_entries(trace):
    assert replay("reap", trace, "random", seed=1)[2] == ["miss"]
    assert replay("reap", trace, "random", seed=2)[2] == ["miss"]
    assert len(soa._pass1_memo) == 2
    products = [entry.product for entry in soa._pass1_memo.values()]
    assert not np.array_equal(products[0].frames, products[1].frames)
    assert replay("reap", trace, "random", seed=2)[2] == ["hit"]


def test_memo_stays_within_its_cap():
    config = small_l2()
    for seed in range(1, soa.PASS1_MEMO_ENTRIES + 3):
        short = generate_l2_trace(get_profile("gcc"), config, 300, seed=seed)
        assert replay("conventional", short)[2] == ["miss"]
        assert len(soa._pass1_memo) == min(seed, soa.PASS1_MEMO_ENTRIES)
    # The oldest entries went first: the newest trace still hits.
    assert replay("conventional", short)[2] == ["hit"]


def test_shared_product_rejects_writes(trace):
    replay("conventional", trace)
    (entry,) = soa._pass1_memo.values()
    product = entry.product
    for field in dataclasses.fields(product):
        value = getattr(product, field.name)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError):
                value[...] = 0
        elif isinstance(value, tuple) and field.name != "scrub_state":
            with pytest.raises(TypeError):
                value[0] = value[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        product.frames = np.zeros(1)
    for column in entry.columns:
        with pytest.raises(ValueError):
            column[0] = 0


def test_cpu_path_hits_and_equals_reference():
    sim_config = small_hierarchy_config()
    cpu_trace = hot_loop_trace(num_accesses=3000, data_bytes=8 * 1024, seed=5)
    reference_cache = build_cache("reap", config=sim_config.hierarchy.l2)
    reference_result, reference_hierarchy = run_cpu_trace(
        reference_cache, cpu_trace, config=sim_config, engine="reference"
    )
    outcomes = []
    for _ in range(2):
        cache = build_cache("reap", config=sim_config.hierarchy.l2)
        sink = MemorySink()
        with telemetry(sink):
            result, hierarchy = run_cpu_trace(
                cache, cpu_trace, config=sim_config, engine="fast"
            )
        outcomes += memo_outcomes(sink)
        assert_results_equivalent(reference_result, result)
        assert_hierarchies_equivalent(reference_hierarchy, hierarchy)
        assert_caches_equivalent(reference_cache, cache)
    assert outcomes == ["miss", "hit"]


def test_memo_field_reads_miss_hit_bypass(trace):
    sink = MemorySink()
    with telemetry(sink):
        for _ in range(2):
            cache = build_cache("conventional", config=small_l2(), ones_count=None)
            run_l2_trace(cache, trace, engine="fast")
        run_l2_trace(cache, trace, engine="fast")  # now warm
    assert memo_outcomes(sink) == ["miss", "hit", "bypass"]


def test_concurrent_replays_share_the_memo_safely():
    """More threads than cores and entries than the cap, with fast switching."""
    config = small_l2()
    traces = [
        generate_l2_trace(get_profile("gcc"), config, 400, seed=seed)
        for seed in range(1, soa.PASS1_MEMO_ENTRIES + 3)
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
    assert len(soa._pass1_memo) <= soa.PASS1_MEMO_ENTRIES
