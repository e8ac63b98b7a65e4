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

:func:`run_cpu_trace_fast` extends the same treatment to the full two-level
hierarchy: the CPU stream is pre-decoded once, filtered through compact
L1I/L1D models (:func:`repro.sim.soa.filter_through_l1_soa`, optionally
served from the :class:`~repro.workloads.ArtifactCache`), and the realised
L2 read/write-back stream is replayed by the same SoA kernel.  The returned
:class:`~repro.cache.CacheHierarchy` carries the same L1 contents and
statistics as the reference loop.

Numerical equivalence is by construction, not by tolerance: every floating
point accumulator (energy components, expected failures) receives the same
addends in the same order as the reference loop, and the vectorised
binomial functions are element-for-element identical to the scalar ones the
:class:`~repro.core.engine.ReliabilityEngine` memoises.  The differential
harness in ``tests/sim/test_engine_equivalence.py`` asserts this field by
field for every scheme x replacement policy x trace level.

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
from ..config import SimulationConfig
from ..core.conventional import ConventionalCache
from ..core.protected import ProtectedCache
from ..core.reap import REAPCache
from ..core.restore import RestoreCache
from ..core.scrubbing import ScrubbingCache
from ..core.serial import SerialAccessCache
from ..errors import SimulationError
from ..telemetry import emit_event, span
from ..workloads.trace import KIND_ORDER, Trace
from .results import SchemeRunResult
from .soa import _CONVENTIONAL, _REAP, _SERIAL, filter_through_l1_soa, replay_l2_soa

#: Scheme classes the fast path replays (exact types: a subclass may change
#: behaviour the batched kernel does not know about), with the kernel's
#: delivery-kind code for each.
_SCHEME_MODES = {
    ConventionalCache: _CONVENTIONAL,
    REAPCache: _REAP,
    SerialAccessCache: _SERIAL,
    RestoreCache: _CONVENTIONAL,  # restore delivers through the Eq. (3) path
    ScrubbingCache: _CONVENTIONAL,  # scrubbing adds a patrol pass per access
}


def supports_fast_path(cache: ProtectedCache) -> tuple[bool, str]:
    """Whether the batched engine can replay traces for ``cache``.

    Returns:
        ``(supported, reason)``; ``reason`` is empty when supported and
        names the unsupported feature otherwise.
    """
    if type(cache) not in _SCHEME_MODES:
        return False, f"scheme {cache.scheme_name()!r} ({type(cache).__name__})"
    policy = cache.cache.replacement
    if type(policy) not in BUILTIN_POLICIES:
        return False, f"replacement policy {type(policy).__name__} (not a built-in)"
    return True, ""


def _require_fast_path(cache: ProtectedCache) -> None:
    supported, reason = supports_fast_path(cache)
    if not supported:
        raise SimulationError(f"fast path does not support {reason}")


def _export_l1_state(hierarchy: CacheHierarchy) -> dict:
    """Snapshot everything the L1 filter mutated, for the artifact cache.

    Captures, per L1 side, the materialised sets' full block state, the
    replacement policy's per-set rows and global state, the cache tick and
    statistics counters, plus the hierarchy-level reference counts — the
    complete observable end state of :func:`filter_through_l1_soa` on a
    fresh hierarchy.
    """
    state: dict = {}
    for side in ("l1i", "l1d"):
        cache = getattr(hierarchy, side)
        policy = cache.replacement
        sets: dict[int, list] = {}
        rows: dict[int, list] = {}
        for set_index in range(cache.num_sets):
            cache_set = cache.peek_set(set_index)
            if cache_set is None:
                continue
            sets[set_index] = [dict(vars(block)) for block in cache_set.blocks]
            rows[set_index] = policy.export_set_state(set_index)
        state[side] = {
            "sets": sets,
            "rows": rows,
            "globals": policy.export_global_state(),
            "tick": cache._tick,  # noqa: SLF001 - engine-internal state sync
            "stats": dict(vars(cache.stats)),
        }
    state["hierarchy"] = dict(vars(hierarchy.stats))
    return state


def _apply_l1_state(hierarchy: CacheHierarchy, state: dict) -> None:
    """Restore an :func:`_export_l1_state` snapshot into a fresh hierarchy."""
    for side in ("l1i", "l1d"):
        cache = getattr(hierarchy, side)
        policy = cache.replacement
        saved = state[side]
        for set_index, blocks_saved in saved["sets"].items():
            blocks = cache.cache_set(set_index).blocks
            for block, fields in zip(blocks, blocks_saved):
                block.__dict__.update(fields)
        for set_index, row in saved["rows"].items():
            policy.import_set_state(set_index, row)
        policy.import_global_state(saved["globals"])
        cache._tick = saved["tick"]  # noqa: SLF001 - engine-internal state sync
        for name, value in saved["stats"].items():
            setattr(cache.stats, name, value)
    for name, value in state["hierarchy"].items():
        setattr(hierarchy.stats, name, value)


def run_cpu_trace_fast(
    l2_cache: ProtectedCache,
    trace: Trace,
    config: SimulationConfig | None = None,
    seed: int = 1,
    add_leakage: bool = True,
    artifact_cache=None,
) -> tuple[SchemeRunResult, CacheHierarchy]:
    """Batched equivalent of the reference :func:`repro.sim.run_cpu_trace`.

    The CPU stream is pre-decoded once, filtered through run-length-encoded
    L1I/L1D replays, and the realised L2 read/write-back stream is replayed
    with the SoA kernel.  The returned hierarchy holds L1 caches whose
    contents, statistics and replacement state match the reference loop's
    field for field.

    Args:
        l2_cache: The protected L2 placed under the L1s (mutated in place).
        trace: CPU-level trace (``IFETCH`` / ``LOAD`` / ``STORE`` records).
        config: Simulation configuration (hierarchy geometry and time base).
        seed: Seed for the L1 replacement policies.
        add_leakage: Whether to add L2 leakage energy for the simulated time.
        artifact_cache: Optional :class:`~repro.workloads.ArtifactCache`
            (or directory spec) serving pre-filtered L2 streams keyed by
            trace content and L1 geometry; purely operational — results
            are bit-identical with the cache cold, warm or disabled.

    Returns:
        A (result, hierarchy) pair, as from :func:`repro.sim.run_cpu_trace`.

    Raises:
        SimulationError: if the L2 is not fast-path capable or the trace
            contains L2-level records (checked before any state mutation).
    """
    from .engine import _snapshot

    _require_fast_path(l2_cache)
    config = config or SimulationConfig()
    hierarchy = CacheHierarchy(config.hierarchy, l2_cache, seed=seed)
    scheme = l2_cache.scheme_name()
    emit_event("sim.engine", engine="fast", path="cpu", scheme=scheme)

    stream_cache = stream_key = cached_stream = None
    if isinstance(trace, Trace):
        from ..workloads.artifacts import ArtifactCache

        stream_cache = ArtifactCache.resolve(artifact_cache)
        if stream_cache is not None:
            stream_key = stream_cache.l1_stream_key(
                trace.content_hash(), config.hierarchy, seed
            )
            cached_stream = stream_cache.load_l1_stream(stream_key)

    if cached_stream is not None:
        l2_codes, l2_addresses, l1_state = cached_stream
        _apply_l1_state(hierarchy, l1_state)
    else:
        with span("kernel.decode", scheme=scheme, path="cpu", accesses=len(trace)):
            cpu_codes, cpu_addresses = _decode_cpu(trace)
        with span("kernel.l1_filter", scheme=scheme, accesses=len(trace)):
            l2_codes, l2_addresses = filter_through_l1_soa(
                hierarchy, cpu_codes, cpu_addresses
            )
        if stream_cache is not None:
            stream_cache.store_l1_stream(
                stream_key,
                trace.name,
                np.asarray(l2_codes, dtype=np.int8),
                np.asarray(l2_addresses, dtype=np.int64),
                _export_l1_state(hierarchy),
            )

    with span("kernel.decode", scheme=scheme, path="l2", accesses=len(l2_codes)):
        codes = np.asarray(l2_codes, dtype=np.int8)
        addresses = np.asarray(l2_addresses, dtype=np.int64)
        batch = l2_cache.cache.mapper.decompose_batch(addresses)
    replay_l2_soa(
        l2_cache, codes, batch.indices, batch.tags, _SCHEME_MODES[type(l2_cache)]
    )

    # Time base: one CPU reference per cycle, as in the reference loop.
    simulated_time = len(trace) * config.cycle_time_s
    if add_leakage:
        l2_cache.add_leakage(simulated_time)
    l2_accesses = hierarchy.stats.l2_reads + hierarchy.stats.l2_writebacks
    result = _snapshot(l2_cache, trace.name, l2_accesses, simulated_time)
    return result, hierarchy


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
    return codes, batch.indices, batch.tags


def replay_l2_segments(cache: ProtectedCache, segments) -> int:
    """Replay decoded ``(kinds, addresses)`` segments against a protected cache.

    Each segment is decoded and replayed in turn.  The kernel seeds every
    accumulator from live cache state on entry and folds everything back on
    exit — block fields and ticks through the compact per-set protocol,
    policy state through ``export_set_state``/``import_set_state``, energy
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
    mode = _SCHEME_MODES[type(cache)]
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
            replay_l2_soa(cache, codes, set_indices, tags, mode)
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
    return codes, addresses
