"""Pass 1 of the SoA kernel does not depend on the protection scheme.

:func:`repro.sim.soa.functional_pass` decides hit/miss, victim and eviction
for every access.  For a policy whose victim choice ignores exposure, that
decision is the same whichever scheme protects the cache and whatever its
``p_cell``; the patrol scrubber only adds its own visit log.  Sharing one
pass-1 product across schemes and ``p_cell`` points relies on exactly this.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from equivalence_utils import small_l2

from repro.core import DataValueProfile, build_protected_cache
from repro.sim.fastpath import _decode_arrays
from repro.sim.soa import _l2_pass1_inputs, functional_pass
from repro.workloads import generate_l2_trace, get_profile

#: Policies whose victim choice ignores exposure (LER reads it).
POLICIES = ("lru", "fifo", "random", "plru")
SCHEMES = ("conventional", "reap", "serial", "restore")
P_CELLS = (1e-9, 1e-6)
PATROL_FIELDS = ("visit_positions", "visit_frames", "scrub_state")


@pytest.fixture(scope="module")
def trace():
    return generate_l2_trace(get_profile("mcf"), small_l2(), 4000, seed=3)


def product(trace, scheme: str, policy: str, p_cell: float):
    config = small_l2(replacement=policy)
    cache = build_protected_cache(
        scheme,
        config,
        p_cell=p_cell,
        data_profile=DataValueProfile(block_bits=config.block_size_bits, seed=7),
        seed=1,
    )
    codes, set_indices, tags = _decode_arrays(cache, *trace.decoded())
    return functional_pass(
        cache.cache,
        codes,
        set_indices,
        tags,
        *_l2_pass1_inputs(cache),
    )


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


@pytest.mark.parametrize("policy", POLICIES)
def test_functional_product_is_scheme_and_pcell_independent(trace, policy):
    reference = product(trace, "conventional", policy, P_CELLS[0])
    # The trace must exercise the victim choice, or the check is vacuous.
    assert reference.evicted.any() and reference.evict_dirty.any()
    assert reference.scrub_state is None and reference.visit_frames.size == 0
    for scheme in SCHEMES:
        for p_cell in P_CELLS:
            assert_products_equal(
                reference, product(trace, scheme, policy, p_cell), f"{scheme}@{p_cell}"
            )
    for p_cell in P_CELLS:
        scrubbed = product(trace, "scrubbing", policy, p_cell)
        assert scrubbed.visit_frames.size > 0
        assert_products_equal(
            reference, scrubbed, f"scrubbing@{p_cell}", exclude=PATROL_FIELDS
        )
