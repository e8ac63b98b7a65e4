"""The fast path works on column-backed cache state, never on block objects.

:class:`~repro.cache.SetAssociativeCache` keeps every set no caller has
touched as objects in frame-indexed NumPy columns, and the SoA kernel
gathers and scatters those columns over the touched frames.  These tests
pin the two consequences that the equivalence grids cannot see:

* a cold fast-path replay (L2 or CPU level, any scheme) constructs no
  :class:`~repro.cache.CacheBlock` and no :class:`~repro.cache.CacheSet`,
  so per-set object loops cannot creep back into the kernel;
* the L1-stream artifact sidecar, now written straight from the L1
  columns, is byte-identical to the one the object path wrote, so
  existing artifact caches keep hitting.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from equivalence_utils import (
    EQUIVALENCE_POLICIES,
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


@pytest.mark.parametrize("l1_stream", ("uncached", "warm"))
def test_cold_cpu_replay_builds_no_block_objects(constructions, l1_stream, tmp_path):
    sim_config = small_hierarchy_config()
    artifacts = tmp_path / "artifacts" if l1_stream == "warm" else "off"
    runs = 2 if l1_stream == "warm" else 1  # the second run loads the sidecar
    for _ in range(runs):
        cache = build_cache("reap", config=sim_config.hierarchy.l2)
        run_cpu_trace(
            cache,
            cpu_trace(),
            config=sim_config,
            engine="fast",
            artifact_cache=artifacts,
        )
    assert constructions == Counter()


def object_path_sidecar(hierarchy) -> dict:
    """The L1 end-state sidecar as the object path wrote it, block by block.

    A fresh hierarchy's filter touches exactly the sets that end holding a
    valid line (an L1 never invalidates), so those are the sets exported.
    """
    state: dict = {}
    for side in ("l1i", "l1d"):
        cache = getattr(hierarchy, side)
        policy = cache.replacement
        touched = sorted({set_index for set_index, _, _ in cache.resident_blocks()})
        state[side] = {
            "sets": [
                [s, [dict(vars(block)) for block in cache.blocks_in_set(s)]]
                for s in touched
            ],
            "rows": [[s, policy.export_set_state(s)] for s in touched],
            "globals": policy.export_global_state(),
            "tick": cache._tick,
            "stats": dict(vars(cache.stats)),
        }
    state["hierarchy"] = dict(vars(hierarchy.stats))
    return state


@pytest.mark.parametrize("l1_policy", EQUIVALENCE_POLICIES)
def test_l1_sidecar_bytes_equal_the_object_path(l1_policy, tmp_path):
    sim_config = small_hierarchy_config(l1_replacement=l1_policy)
    trace = cpu_trace()
    run_cpu_trace(
        build_cache("reap", config=sim_config.hierarchy.l2),
        trace,
        config=sim_config,
        seed=2,
        engine="fast",
        artifact_cache=tmp_path,
    )
    (sidecar,) = (tmp_path / "l1").glob("*.state")
    _, reference_hierarchy = run_cpu_trace(
        build_cache("reap", config=sim_config.hierarchy.l2),
        trace,
        config=sim_config,
        seed=2,
        engine="reference",
    )
    expected = json.dumps(
        object_path_sidecar(reference_hierarchy),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    ).encode("ascii")
    assert sidecar.read_bytes() == expected
