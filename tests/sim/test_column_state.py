"""The fast path works on column-backed cache state, never on block objects.

:class:`~repro.cache.SetAssociativeCache` keeps every set no caller has
touched as objects in frame-indexed NumPy columns, and the SoA kernel
gathers and scatters those columns over the touched frames.  These tests
pin the consequence that the equivalence grids cannot see: a cold
fast-path replay (L2 or CPU level, any scheme) constructs no
:class:`~repro.cache.CacheBlock` and no :class:`~repro.cache.CacheSet`, so
per-set object loops cannot creep back into the kernel.
"""

from __future__ import annotations

from collections import Counter

import pytest
from equivalence_utils import (
    EQUIVALENCE_SCHEMES,
    build_cache,
    small_hierarchy_config,
    small_l2,
)

from repro.cache import CacheBlock, CacheSet
from repro.sim import run_cpu_trace, run_l2_trace, soa
from repro.workloads import (
    generate_l2_trace,
    get_profile,
    hot_loop_trace,
    mixed_trace,
    pointer_chase_trace,
    sequential_trace,
)


@pytest.fixture
def constructions(monkeypatch):
    """Count ``CacheBlock`` and ``CacheSet`` constructions from here on."""
    counts = Counter()
    for cls in (CacheBlock, CacheSet):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    soa.clear_kernel_memo()
    yield counts
    soa.clear_kernel_memo()


def cpu_trace(length: int = 3000):
    return mixed_trace(
        "cpu-mix",
        [
            hot_loop_trace(num_accesses=length // 2, data_bytes=8 * 1024, seed=1),
            pointer_chase_trace(num_accesses=length // 4, num_nodes=96, seed=2),
            sequential_trace(num_accesses=length // 4, store_fraction=0.3, seed=3),
        ],
        seed=4,
    )


@pytest.mark.parametrize("policy", ("lru", "plru"))
@pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
def test_cold_l2_replay_builds_no_block_objects(constructions, scheme, policy):
    config = small_l2(replacement=policy)
    trace = generate_l2_trace(get_profile("mcf"), config, 3000, seed=3)
    # The first replay runs both passes, the second is served from the memo.
    for _ in range(2):
        cache = build_cache(scheme, config=config)
        run_l2_trace(cache, trace, engine="fast")
        assert cache.cache.stats.evictions > 0
    assert constructions == Counter()
    # The counter does see object access: the first one builds the set.
    cache.cache.blocks_in_set(0)
    assert constructions == Counter(CacheSet=1, CacheBlock=config.associativity)


def test_cold_cpu_replay_builds_no_block_objects(constructions):
    sim_config = small_hierarchy_config()
    cache = build_cache("reap", config=sim_config.hierarchy.l2)
    run_cpu_trace(cache, cpu_trace(), config=sim_config, engine="fast")
    assert constructions == Counter()
