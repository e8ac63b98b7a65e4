"""Batched fast-path execution of L2-level and CPU-level traces.

:func:`replay_l2_segments` replays decoded L2 trace segments against a
protected cache and produces the *same* end state as the reference
per-record loop in :mod:`repro.sim.engine` — same
:class:`~repro.reliability.AccumulationTracker` samples, same
cache/reliability/energy statistics, same per-block and per-set policy state
— while running several times faster.  An in-memory trace is simply one
segment.  Each segment is decoded into NumPy arrays (access kind, set index,
tag) with one vectorised :meth:`repro.cache.AddressMapper.decompose_batch`
call, validated, and handed to the structure-of-arrays kernel in
:mod:`repro.sim.soa`.

The fast step of :func:`repro.sim.run_cpu_trace` extends the same
treatment to the full two-level hierarchy: the CPU stream is pre-decoded
once, filtered through compact L1I/L1D models
(:func:`repro.sim.soa.filter_through_l1_soa`), and the realised L2
read/write-back stream is replayed by the same SoA kernel.  The hierarchy
ends with the same L1 contents and statistics as the reference loop.

Numerical equivalence is by construction, not by tolerance: every floating
point accumulator (energy components, expected failures) receives the same
addends in the same order as the reference loop, and both engines take
their failure probabilities from the one
:meth:`~repro.core.engine.ReliabilityEngine.failure_probabilities`.  The
differential harness in ``tests/sim/test_engine_equivalence.py`` asserts
this field by field for every scheme x replacement policy x trace level.

The fast path replays exactly the five built-in protection schemes
(conventional, REAP, serial, restore, and the patrol-scrubbing baseline)
over the five built-in replacement policies
(:data:`repro.cache.replacement.BUILTIN_POLICIES`), as exact types.
:func:`supports_fast_path` reports whether a cache qualifies; anything
else, a subclass of a built-in included, makes
:func:`repro.sim.run_l2_trace` with ``engine="auto"`` fall back to the
reference loop (with a one-line warning).

One deliberate behavioural difference: the reference loop validates records
as it consumes them, so a malformed trace leaves the cache partially
mutated; the fast path validates each segment (a whole in-memory trace is
one segment) during decode and raises *before* replaying any of it.
"""

from __future__ import annotations

import numpy as np

from ..cache import CacheHierarchy
from ..cache.replacement import BUILTIN_POLICIES
from ..core.protected import ProtectedCache
from ..core.schemes import SCHEME_CLASSES
from ..errors import SimulationError
from ..telemetry import emit_event, span
from ..workloads.trace import KIND_ORDER, Trace
from .soa import _read_only, filter_through_l1_soa, replay_l2_soa


def supports_fast_path(cache: ProtectedCache) -> tuple[bool, str]:
    """Whether the batched engine can replay traces for ``cache``.

    Returns:
        ``(supported, reason)``; ``reason`` is empty when supported and
        names the unsupported feature otherwise.
    """
    # Exact types: a subclass may change behaviour the kernel does not know.
    if type(cache) not in SCHEME_CLASSES.values():
        return False, f"scheme {cache.scheme_name()!r} ({type(cache).__name__})"
    policy = cache.cache.replacement
    if type(policy) not in BUILTIN_POLICIES:
        return False, f"replacement policy {type(policy).__name__} (not a built-in)"
    return True, ""


def _require_fast_path(cache: ProtectedCache) -> None:
    supported, reason = supports_fast_path(cache)
    if not supported:
        raise SimulationError(f"fast path does not support {reason}")


def _replay_cpu_trace(hierarchy: CacheHierarchy, trace: Trace) -> None:
    """The fast step of :func:`repro.sim.run_cpu_trace`.

    The CPU stream is pre-decoded once, filtered through run-length-encoded
    L1I/L1D replays, and the realised L2 read/write-back stream is replayed
    with the SoA kernel.  The hierarchy's L1 caches end with the contents,
    statistics and replacement state the reference loop leaves.

    Raises:
        SimulationError: if the L2 is not fast-path capable or the trace
            contains L2-level records (checked before any state mutation).
    """
    l2_cache = hierarchy.l2
    _require_fast_path(l2_cache)
    scheme = l2_cache.scheme_name()
    emit_event("sim.engine", engine="fast", path="cpu", scheme=scheme)
    with span("kernel.decode", scheme=scheme, path="cpu", accesses=len(trace)):
        cpu_codes, cpu_addresses = _decode_cpu(trace)
    with span("kernel.l1_filter", scheme=scheme, accesses=len(trace)) as timed:
        l2_codes, l2_addresses, outcome = filter_through_l1_soa(
            hierarchy, cpu_codes, cpu_addresses
        )
        timed.add(memo=outcome)
    with span("kernel.decode", scheme=scheme, path="l2", accesses=len(l2_codes)):
        codes = np.asarray(l2_codes, dtype=np.int8)
        addresses = np.asarray(l2_addresses, dtype=np.int64)
        batch = l2_cache.cache.mapper.decompose_batch(addresses)
        set_indices, tags = _read_only(batch.indices), _read_only(batch.tags)
    replay_l2_soa(l2_cache, codes, set_indices, tags)


#: Remaps :data:`repro.workloads.trace.KIND_ORDER` indices (IFETCH, LOAD,
#: STORE, L2_READ, L2_WRITE) to the engines' level-specific codes.
_L2_KIND_MAP = np.array([2, 2, 2, 0, 1], dtype=np.int8)
_CPU_KIND_MAP = np.array([0, 1, 2, 3, 3], dtype=np.int8)


def _decode_arrays(
    cache: ProtectedCache, kinds: np.ndarray, addresses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode (KIND_ORDER kinds, addresses) into (kind code, set, tag) arrays."""
    codes = _L2_KIND_MAP[kinds]
    bad = np.flatnonzero(codes == 2)
    if bad.size:
        raise SimulationError(
            f"run_l2_trace expects L2-level records, got "
            f"{KIND_ORDER[int(kinds[bad[0]])]}"
        )
    batch = cache.cache.mapper.decompose_batch(addresses)
    # Read-only, so the kernel memo can hold the columns without a copy.
    return _read_only(codes), _read_only(batch.indices), _read_only(batch.tags)


def replay_l2_segments(cache: ProtectedCache, segments) -> int:
    """Replay decoded ``(kinds, addresses)`` segments against a protected cache.

    Each segment is decoded and replayed in turn.  The kernel seeds every
    accumulator from live cache state on entry and folds everything back on
    exit — block fields and ticks through the cache's block columns,
    policy rows through the policy's ``rows`` array, energy
    partial sums from ``cache.energy``, reliability statistics through
    sequential array accumulation, tracker samples by append, patrol-scrub
    credit and cursor through the scrub-state export — so the end state
    after N segments is bit-identical to one whole-trace replay.  Peak
    memory is bounded by the largest segment.

    Each segment runs inside a ``kernel.segment`` telemetry span carrying
    the segment ordinal and access count.

    Args:
        cache: The protected cache to drive (mutated in place).
        segments: Iterable of ``(kinds, addresses)`` NumPy column pairs in
            the :data:`~repro.workloads.trace.KIND_ORDER` encoding, e.g.
            from :meth:`repro.workloads.streams.TraceSource.segments`.

    Returns:
        The total number of accesses replayed.

    Raises:
        SimulationError: if the cache is not fast-path capable or a segment
            contains CPU-level records.  Validation is per segment: a
            segment is rejected before any of it is replayed, but earlier
            segments have already mutated the cache.
    """
    _require_fast_path(cache)
    scheme = cache.scheme_name()
    emit_event("sim.engine", engine="fast", path="l2", scheme=scheme)
    total = 0
    for segment_index, (kinds, addresses) in enumerate(segments):
        accesses = len(kinds)
        with span(
            "kernel.segment",
            scheme=scheme,
            path="l2",
            segment=segment_index,
            accesses=accesses,
        ):
            codes, set_indices, tags = _decode_arrays(cache, kinds, addresses)
            replay_l2_soa(cache, codes, set_indices, tags)
        total += accesses
    return total


def _decode_cpu(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Pre-decode a CPU-level trace into (kind code, address) arrays."""
    kinds, addresses = trace.decoded()
    codes = _CPU_KIND_MAP[kinds]
    bad = np.flatnonzero(codes == 3)
    if bad.size:
        raise SimulationError(
            f"run_cpu_trace expects CPU-level records, got "
            f"{KIND_ORDER[int(kinds[bad[0]])]}"
        )
    return _read_only(codes), addresses  # the trace's addresses are read-only
