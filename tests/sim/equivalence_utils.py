"""Shared helpers and assertions for the engine-equivalence test suites.

The differential-equivalence harness and the randomized property tests both
need the same machinery: build two identically-seeded caches, run the same
trace through the reference and fast engines, and assert that every
observable — the :class:`~repro.sim.SchemeRunResult` snapshot, the
accumulation-tracker samples, the cache/reliability/energy statistics, the
per-block state, and the per-set replacement-policy state — matches field by
field.  Integers must match exactly; floats must agree to 1e-12 relative
(in practice the fast path is bit-identical by construction, so the
tolerance is pure headroom).

The hierarchy variants run the same comparison over :func:`repro.sim.run_cpu_trace`,
additionally asserting :class:`~repro.cache.hierarchy.HierarchyStatistics`
and full L1I/L1D contents (blocks, statistics, replacement state).
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.config import (
    CacheLevelConfig,
    ECCConfig,
    ECCKind,
    HierarchyConfig,
    SimulationConfig,
)
from repro.core import DataValueProfile, ScrubbingCache, build_protected_cache
from repro.sim import run_cpu_trace, run_l2_trace

#: Relative tolerance for float fields (acceptance criterion; the engines
#: are bit-identical by construction, so this is headroom, not slack).
FLOAT_RTOL = 1e-12

#: The schemes the fast path replays, exercised by the differential harness.
EQUIVALENCE_SCHEMES = ("conventional", "reap", "serial", "restore", "scrubbing")

#: Every built-in replacement policy, all covered by the fast path via the
#: compact-state protocol.
EQUIVALENCE_POLICIES = ("lru", "fifo", "plru", "random", "ler")

#: Replays the fast engine's L2 side both as one segment and in ragged
#: segments, so every scenario also checks state carried across segment
#: boundaries.  Tests take the value as ``segment_accesses``.
over_fast_segmenting = pytest.mark.parametrize(
    "segment_accesses", (None, 701), ids=("whole", "segmented")
)

#: Runs the fast engine's CPU path with the L1-filtered stream computed
#: in place and loaded from a warm artifact cache.  Tests take the value
#: as ``l1_stream``.
over_l1_stream = pytest.mark.parametrize("l1_stream", ("uncached", "warm"))


def small_l2(**overrides) -> CacheLevelConfig:
    """A small L2 geometry that keeps the harness quick but conflict-rich."""
    params = dict(
        name="L2",
        size_bytes=64 * 1024,
        associativity=8,
        block_size_bytes=64,
        technology="stt-mram",
    )
    params.update(overrides)
    return CacheLevelConfig(**params)


def interleaved_l2() -> CacheLevelConfig:
    """A geometry using a multi-lane interleaved code (lanes > 1 math)."""
    return small_l2(
        ecc=ECCConfig(kind=ECCKind.INTERLEAVED_SECDED, interleaving_degree=4)
    )


def small_hierarchy_config(
    l1_replacement: str = "lru", l2_config: CacheLevelConfig | None = None
) -> SimulationConfig:
    """A small two-level hierarchy that keeps CPU-trace runs quick."""
    l2 = l2_config or small_l2()
    hierarchy = HierarchyConfig(
        l1i=CacheLevelConfig(
            name="L1I",
            size_bytes=4 * 1024,
            associativity=2,
            block_size_bytes=64,
            replacement=l1_replacement,
        ),
        l1d=CacheLevelConfig(
            name="L1D",
            size_bytes=4 * 1024,
            associativity=4,
            block_size_bytes=64,
            replacement=l1_replacement,
        ),
        l2=l2,
    )
    return SimulationConfig(hierarchy=hierarchy)


def build_cache(
    scheme: str,
    config: CacheLevelConfig | None = None,
    seed: int = 1,
    ones_count: int | None = 100,
    scrub_lines_per_access: float | None = None,
    **kwargs,
):
    """Build a protected cache with deterministic defaults for the harness."""
    config = config or small_l2()
    if ones_count is not None:
        profile = DataValueProfile.constant(
            ones_count, block_bits=config.block_size_bits
        )
    else:
        profile = DataValueProfile(block_bits=config.block_size_bits, seed=seed)
    if scrub_lines_per_access is not None:
        assert scheme == "scrubbing", "scrub rate only applies to the scrubbing scheme"
        return ScrubbingCache(
            config=config,
            p_cell=1e-8,
            data_profile=profile,
            seed=seed,
            scrub_lines_per_access=scrub_lines_per_access,
            **kwargs,
        )
    return build_protected_cache(
        scheme, config, p_cell=1e-8, data_profile=profile, seed=seed, **kwargs
    )


def run_both_engines(
    scheme, trace, config=None, seed=1, ones_count=100, segment_accesses=None, **kwargs
):
    """Run one trace through both engines on identically-built caches.

    ``segment_accesses`` is the fast engine's replay segment length
    (``None`` replays the trace as one segment).

    Returns:
        ``(reference_result, fast_result, reference_cache, fast_cache)``.
    """
    reference_cache = build_cache(
        scheme, config=config, seed=seed, ones_count=ones_count, **kwargs
    )
    fast_cache = build_cache(
        scheme, config=config, seed=seed, ones_count=ones_count, **kwargs
    )
    reference_result = run_l2_trace(reference_cache, trace, engine="reference")
    fast_result = run_l2_trace(
        fast_cache, trace, engine="fast", segment_accesses=segment_accesses
    )
    return reference_result, fast_result, reference_cache, fast_cache


def run_both_cpu_engines(
    scheme,
    trace,
    sim_config=None,
    seed=1,
    ones_count=100,
    artifact_cache="off",
    **kwargs,
):
    """Run one CPU trace through both engines over identical hierarchies.

    When ``artifact_cache`` names a cache, a throwaway fast run on a
    separate L2 stores the L1-filtered stream first, so the measured fast
    run replays it from the warm cache.

    Returns:
        ``(reference_result, fast_result, reference_hierarchy,
        fast_hierarchy, reference_cache, fast_cache)``.
    """
    sim_config = sim_config or small_hierarchy_config()
    reference_cache = build_cache(
        scheme, config=sim_config.hierarchy.l2, seed=seed, ones_count=ones_count, **kwargs
    )
    fast_cache = build_cache(
        scheme, config=sim_config.hierarchy.l2, seed=seed, ones_count=ones_count, **kwargs
    )
    if artifact_cache != "off":
        warming_cache = build_cache(
            scheme, config=sim_config.hierarchy.l2, seed=seed, ones_count=ones_count, **kwargs
        )
        run_cpu_trace(
            warming_cache,
            trace,
            config=sim_config,
            seed=seed,
            engine="fast",
            artifact_cache=artifact_cache,
        )
    reference_result, reference_hierarchy = run_cpu_trace(
        reference_cache, trace, config=sim_config, seed=seed, engine="reference"
    )
    fast_result, fast_hierarchy = run_cpu_trace(
        fast_cache,
        trace,
        config=sim_config,
        seed=seed,
        engine="fast",
        artifact_cache=artifact_cache,
    )
    return (
        reference_result,
        fast_result,
        reference_hierarchy,
        fast_hierarchy,
        reference_cache,
        fast_cache,
    )


def assert_float_close(label: str, reference: float, fast: float) -> None:
    """Assert two floats agree to the harness tolerance."""
    if reference == fast:
        return
    assert math.isclose(reference, fast, rel_tol=FLOAT_RTOL, abs_tol=0.0), (
        f"{label}: reference={reference!r} fast={fast!r} "
        f"(relative error {abs(reference - fast) / max(abs(reference), abs(fast)):.3e})"
    )


def assert_mapping_equivalent(label: str, reference: dict, fast: dict) -> None:
    """Field-by-field comparison: exact ints, tolerance floats."""
    assert reference.keys() == fast.keys(), f"{label}: field sets differ"
    for key in reference:
        ref_value, fast_value = reference[key], fast[key]
        if isinstance(ref_value, float):
            assert_float_close(f"{label}.{key}", ref_value, fast_value)
        else:
            assert ref_value == fast_value, (
                f"{label}.{key}: reference={ref_value!r} fast={fast_value!r}"
            )


def assert_results_equivalent(reference, fast) -> None:
    """Field-by-field :class:`SchemeRunResult` equivalence."""
    assert_mapping_equivalent(
        "SchemeRunResult",
        dataclasses.asdict(reference),
        dataclasses.asdict(fast),
    )


def assert_policies_equivalent(label: str, reference, fast) -> None:
    """Per-set and global replacement-policy state equivalence."""
    ref_globals = reference.export_global_state()
    fast_globals = fast.export_global_state()
    assert ref_globals == fast_globals, (
        f"{label}: policy global state differs: {ref_globals!r} != {fast_globals!r}"
    )
    for set_index in range(reference.num_sets):
        ref_state = reference.export_set_state(set_index)
        fast_state = fast.export_set_state(set_index)
        assert ref_state == fast_state, (
            f"{label}: policy state differs at set {set_index}: "
            f"{ref_state!r} != {fast_state!r}"
        )


def assert_substrates_equivalent(label: str, reference, fast) -> None:
    """Block-by-block and policy-state equality of two functional caches."""
    assert_mapping_equivalent(
        f"{label}.stats", vars(reference.stats), vars(fast.stats)
    )
    for set_index in range(reference.num_sets):
        ref_blocks = reference.blocks_in_set(set_index)
        fast_blocks = fast.blocks_in_set(set_index)
        for way, (ref_block, fast_block) in enumerate(zip(ref_blocks, fast_blocks)):
            assert ref_block == fast_block, (
                f"{label}: block state differs at set {set_index} way {way}: "
                f"{ref_block} != {fast_block}"
            )
            assert ref_block.last_access_tick == fast_block.last_access_tick, (
                f"{label}: last_access_tick differs at set {set_index} way {way}"
            )
    assert_policies_equivalent(label, reference.replacement, fast.replacement)


def assert_caches_equivalent(reference, fast) -> None:
    """Deep post-run cache-state equivalence (beyond the result snapshot)."""
    assert_mapping_equivalent(
        "reliability", vars(reference.reliability), vars(fast.reliability)
    )
    assert_mapping_equivalent("energy", vars(reference.energy), vars(fast.energy))

    ref_tracker, fast_tracker = reference.tracker, fast.tracker
    assert (ref_tracker is None) == (fast_tracker is None), "tracker presence differs"
    if ref_tracker is not None:
        assert ref_tracker.samples == fast_tracker.samples, "tracker samples differ"

    assert_substrates_equivalent("L2", reference.cache, fast.cache)

    if isinstance(reference, ScrubbingCache):
        assert reference.scrubbed_lines == fast.scrubbed_lines, (
            "scrubbed_lines differ"
        )
        assert reference.export_scrub_state() == fast.export_scrub_state(), (
            "patrol-scrubber state differs"
        )


def assert_hierarchies_equivalent(reference, fast) -> None:
    """HierarchyStatistics plus full L1I/L1D content equivalence."""
    assert_mapping_equivalent(
        "HierarchyStatistics", vars(reference.stats), vars(fast.stats)
    )
    assert_substrates_equivalent("L1I", reference.l1i, fast.l1i)
    assert_substrates_equivalent("L1D", reference.l1d, fast.l1d)
