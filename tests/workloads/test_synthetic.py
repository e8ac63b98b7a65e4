"""Tests for the CPU-level synthetic trace generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.workloads import (
    AccessKind,
    hot_loop_trace,
    mixed_trace,
    pointer_chase_trace,
    sequential_trace,
    strided_trace,
)
from repro.workloads.synthetic import _mix_picks


class TestSequential:
    def test_length_and_monotone_addresses(self):
        trace = sequential_trace(num_accesses=100, stride_bytes=8)
        assert len(trace) == 100
        addresses = [r.address for r in trace]
        assert addresses == sorted(addresses)
        assert addresses[1] - addresses[0] == 8

    def test_no_reuse(self):
        trace = sequential_trace(num_accesses=1000, stride_bytes=64)
        assert trace.unique_blocks(64) == 1000

    def test_store_fraction(self):
        trace = sequential_trace(num_accesses=2000, store_fraction=0.3, seed=1)
        assert trace.write_count / len(trace) == pytest.approx(0.3, abs=0.05)

    def test_rejects_bad_parameters(self):
        with pytest.raises(TraceError):
            sequential_trace(num_accesses=0)
        with pytest.raises(TraceError):
            sequential_trace(store_fraction=1.5)


class TestStrided:
    def test_wraps_around_array(self):
        trace = strided_trace(num_accesses=100, stride_bytes=256, array_bytes=1024)
        unique = {r.address for r in trace}
        assert len(unique) == 4

    def test_reuse_present(self):
        trace = strided_trace(num_accesses=1000, stride_bytes=64, array_bytes=64 * 16)
        assert trace.unique_blocks(64) == 16


class TestPointerChase:
    def test_visits_every_node_once_per_cycle(self):
        trace = pointer_chase_trace(num_accesses=64, num_nodes=64)
        assert trace.unique_blocks(64) == 64

    def test_all_loads(self):
        trace = pointer_chase_trace(num_accesses=50, num_nodes=16)
        assert trace.write_count == 0

    def test_deterministic_with_seed(self):
        a = pointer_chase_trace(num_accesses=20, num_nodes=8, seed=5)
        b = pointer_chase_trace(num_accesses=20, num_nodes=8, seed=5)
        assert [r.address for r in a] == [r.address for r in b]


class TestHotLoop:
    def test_mixes_fetches_loads_and_stores(self):
        trace = hot_loop_trace(num_accesses=500)
        kinds = {r.kind for r in trace}
        assert AccessKind.IFETCH in kinds
        assert AccessKind.LOAD in kinds
        assert AccessKind.STORE in kinds

    def test_respects_length(self):
        assert len(hot_loop_trace(num_accesses=123)) == 123

    def test_code_footprint_is_small(self):
        trace = hot_loop_trace(num_accesses=2000, code_bytes=1024)
        code_addresses = {r.address for r in trace if r.kind is AccessKind.IFETCH}
        assert len(code_addresses) <= 1024 // 4


class TestMixed:
    def test_preserves_component_records(self):
        a = sequential_trace(num_accesses=50, seed=1)
        b = pointer_chase_trace(num_accesses=30, seed=2)
        mixed = mixed_trace("mix", [a, b], seed=3)
        assert len(mixed) == 80
        assert sorted(r.address for r in mixed) == sorted(
            [r.address for r in a] + [r.address for r in b]
        )

    def test_preserves_per_component_order(self):
        a = sequential_trace(num_accesses=40, seed=1)
        mixed = mixed_trace("mix", [a, pointer_chase_trace(num_accesses=40, seed=2)], seed=4)
        a_addresses = [r.address for r in mixed if r.address in {x.address for x in a}]
        assert a_addresses == sorted(a_addresses)

    def test_rejects_empty_component_list(self):
        with pytest.raises(TraceError):
            mixed_trace("mix", [])


def rng_choice_picks(lengths, seed):
    """The per-step ``rng.choice`` loop :func:`mixed_trace` is defined by."""
    rng = np.random.default_rng(seed)
    remaining = list(lengths)
    picks = []
    while any(remaining):
        weights = np.array(remaining, dtype=float)
        weights /= weights.sum()
        choice = int(rng.choice(len(remaining), p=weights))
        picks.append(choice)
        remaining[choice] -= 1
    return picks


@settings(max_examples=300, deadline=None)
@given(
    lengths=st.lists(
        st.one_of(st.just(0), st.integers(1, 59)), min_size=1, max_size=10
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_mix_sampler_equals_numpy_rng_choice_on_installed_numpy(lengths, seed):
    """The batched sampler replays ``Generator.choice`` exactly.

    numpy promises no stream stability across versions (NEP 19): if an
    upgrade changes how ``choice`` draws or searches, this test fails by
    name before any golden trace hash does.
    """
    assert _mix_picks(lengths, np.random.default_rng(seed)) == rng_choice_picks(
        lengths, seed
    )
