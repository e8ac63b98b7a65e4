"""CPU-level synthetic access-pattern generators.

These generators produce instruction-fetch / load / store streams for the
two-level hierarchy front end.  They model the classic microbenchmark
patterns — sequential streaming, strided array walks, pointer chasing, hot
loops — and can be mixed to approximate application phases.  The SPEC-named
L2-level profiles used for the paper's figures live in
:mod:`repro.workloads.spec_profiles`; the CPU-level generators here are used
by the examples and the hierarchy tests.

Each generator collects kind codes and addresses into lists or arrays,
making the same random draws in the same order as a record-at-a-time loop,
and returns :meth:`Trace.from_columns`; no
:class:`~repro.workloads.trace.TraceRecord` is built.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from ..errors import TraceError
from .trace import _KIND_INDEX, AccessKind, Trace

_IFETCH = _KIND_INDEX[AccessKind.IFETCH]
_LOAD = _KIND_INDEX[AccessKind.LOAD]
_STORE = _KIND_INDEX[AccessKind.STORE]


def _check_positive(name: str, value: int) -> None:
    if value <= 0:
        raise TraceError(f"{name} must be positive")


def sequential_trace(
    name: str = "sequential",
    num_accesses: int = 10_000,
    start_address: int = 0x10_0000,
    stride_bytes: int = 8,
    store_fraction: float = 0.0,
    seed: int = 1,
) -> Trace:
    """A streaming walk over a contiguous region (no temporal reuse)."""
    _check_positive("num_accesses", num_accesses)
    _check_positive("stride_bytes", stride_bytes)
    if not 0.0 <= store_fraction <= 1.0:
        raise TraceError("store_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    kinds = [
        _STORE if rng.random() < store_fraction else _LOAD for _ in range(num_accesses)
    ]
    addresses = [start_address + i * stride_bytes for i in range(num_accesses)]
    return Trace.from_columns(name, kinds, addresses)


def strided_trace(
    name: str = "strided",
    num_accesses: int = 10_000,
    start_address: int = 0x20_0000,
    stride_bytes: int = 256,
    array_bytes: int = 1 << 20,
    store_fraction: float = 0.1,
    seed: int = 1,
) -> Trace:
    """A strided walk that wraps around a fixed-size array (regular reuse)."""
    _check_positive("num_accesses", num_accesses)
    _check_positive("stride_bytes", stride_bytes)
    _check_positive("array_bytes", array_bytes)
    rng = np.random.default_rng(seed)
    kinds = [
        _STORE if rng.random() < store_fraction else _LOAD for _ in range(num_accesses)
    ]
    addresses = [
        start_address + (i * stride_bytes) % array_bytes for i in range(num_accesses)
    ]
    return Trace.from_columns(name, kinds, addresses)


def pointer_chase_trace(
    name: str = "pointer-chase",
    num_accesses: int = 10_000,
    num_nodes: int = 4_096,
    node_bytes: int = 64,
    start_address: int = 0x40_0000,
    seed: int = 1,
) -> Trace:
    """A random pointer chase over a fixed node pool (irregular reuse)."""
    _check_positive("num_accesses", num_accesses)
    _check_positive("num_nodes", num_nodes)
    _check_positive("node_bytes", node_bytes)
    rng = np.random.default_rng(seed)
    # A random permutation cycle gives every node exactly one successor, so
    # the chase visits the nodes in permutation order, wrapping around.
    order = rng.permutation(num_nodes)
    nodes = np.resize(order, num_accesses).tolist()
    addresses = [start_address + node * node_bytes for node in nodes]
    return Trace.from_columns(name, [_LOAD] * num_accesses, addresses)


def hot_loop_trace(
    name: str = "hot-loop",
    num_accesses: int = 10_000,
    code_bytes: int = 4_096,
    data_bytes: int = 64 * 1024,
    loads_per_iteration: int = 4,
    stores_per_iteration: int = 1,
    code_address: int = 0x1000,
    data_address: int = 0x80_0000,
    seed: int = 1,
) -> Trace:
    """A small instruction loop repeatedly touching a modest data working set."""
    _check_positive("num_accesses", num_accesses)
    _check_positive("code_bytes", code_bytes)
    _check_positive("data_bytes", data_bytes)
    if loads_per_iteration < 0 or stores_per_iteration < 0:
        raise TraceError("per-iteration access counts must be non-negative")
    rng = np.random.default_rng(seed)
    kinds: list[int] = []
    addresses: list[int] = []
    pc = 0
    while len(kinds) < num_accesses:
        kinds.append(_IFETCH)
        addresses.append(code_address + pc)
        pc = (pc + 4) % code_bytes
        for kind, count in (
            (_LOAD, loads_per_iteration),
            (_STORE, stores_per_iteration),
        ):
            for _ in range(count):
                if len(kinds) >= num_accesses:
                    break
                offset = int(rng.integers(0, data_bytes // 8)) * 8
                kinds.append(kind)
                addresses.append(data_address + offset)
    return Trace.from_columns(name, kinds, addresses)


def _mix_picks(lengths: list[int], rng: np.random.Generator) -> list[int]:
    """Which component each step of :func:`mixed_trace` takes, in order.

    Step by step this is ``rng.choice(len(lengths), p=remaining / total)``
    over the counts still to place.  That call draws one ``rng.random()``
    double ``u`` and returns ``searchsorted(cdf, u, "right")`` with
    ``cdf = cumsum(p) / cumsum(p)[-1]``; the same arithmetic is replayed
    here in Python floats over one batched draw, so the picks (and every
    golden trace hash) are unchanged at a fraction of the cost.  The
    integer total is exact in any summation order, the cumulative sum is
    sequential as numpy's, and ``bisect_right`` is ``side="right"``.
    """
    remaining = list(lengths)
    picks = []
    for u in rng.random(sum(remaining)).tolist():
        total = float(sum(remaining))
        cdf = list(accumulate(count / total for count in remaining))
        last = cdf[-1]
        choice = bisect_right([value / last for value in cdf], u)
        picks.append(choice)
        remaining[choice] -= 1
    return picks


def mixed_trace(
    name: str,
    components: list[Trace],
    seed: int = 1,
) -> Trace:
    """Randomly interleave several traces into one (phase-mixed workload).

    The relative lengths of the components set their mixing weights; each
    component's internal order is preserved.
    """
    if not components:
        raise TraceError("at least one component trace is required")
    picks = _mix_picks([len(c) for c in components], np.random.default_rng(seed))
    # Every component is drawn exactly len(component) times, so its columns
    # fill the steps that picked it, in order.
    choices = np.array(picks, dtype=np.intp)
    kinds = np.empty(len(choices), dtype=np.int8)
    addresses = np.empty(len(choices), dtype=np.int64)
    for index, component in enumerate(components):
        picked = choices == index
        kinds[picked], addresses[picked] = component.decoded()
    return Trace.from_columns(name, kinds, addresses)
