"""Trace-driven simulation engine.

Two entry points:

* :func:`run_l2_trace` — drive a protected L2 cache directly with an L2-level
  trace (the workhorse behind the paper's figures).
* :func:`run_cpu_trace` — drive the full two-level hierarchy with a CPU-level
  trace (instruction fetches, loads, stores), reproducing the paper's gem5
  arrangement end to end.

Both return a :class:`~repro.sim.results.SchemeRunResult` snapshot; the
protected cache object itself remains available for deeper inspection
(accumulation tracker, energy breakdown, per-set state).
"""

from __future__ import annotations

import warnings

from ..cache import CacheHierarchy
from ..config import SimulationConfig
from ..core.protected import ProtectedCache
from ..errors import SimulationError
from ..telemetry import emit_event, span
from ..workloads.streams import TraceSource
from ..workloads.trace import _KIND_INDEX, KIND_ORDER, AccessKind, Trace
from .results import SchemeRunResult

_IFETCH_INDEX = _KIND_INDEX[AccessKind.IFETCH]
_LOAD_INDEX = _KIND_INDEX[AccessKind.LOAD]
_STORE_INDEX = _KIND_INDEX[AccessKind.STORE]
_L2_READ_INDEX = _KIND_INDEX[AccessKind.L2_READ]
_L2_WRITE_INDEX = _KIND_INDEX[AccessKind.L2_WRITE]


def simulated_time_for(
    num_accesses: int, config: SimulationConfig, accesses_per_cycle: float = 0.05
) -> float:
    """Estimate the wall-clock time an L2 access stream represents.

    The L2 sees roughly one access every ``1 / accesses_per_cycle`` core
    cycles (the default corresponds to an L2 APKI in the tens, typical of the
    SPEC CPU2006 suite).  Only *relative* MTTF matters for the figures, but a
    consistent time base keeps absolute MTTF values meaningful.
    """
    if num_accesses < 0:
        raise SimulationError("num_accesses must be non-negative")
    if accesses_per_cycle <= 0:
        raise SimulationError("accesses_per_cycle must be positive")
    cycles = num_accesses / accesses_per_cycle
    return cycles * config.cycle_time_s


def _snapshot(
    cache: ProtectedCache,
    workload: str,
    num_accesses: int,
    simulated_time_s: float,
) -> SchemeRunResult:
    """Collect a result record from a driven protected cache."""
    reliability = cache.reliability
    energy = cache.energy
    stats = cache.stats
    return SchemeRunResult(
        workload=workload,
        scheme=cache.scheme_name(),
        num_accesses=num_accesses,
        simulated_time_s=simulated_time_s,
        expected_failures=cache.expected_failures,
        checked_reads=reliability.checked_reads,
        concealed_reads=reliability.concealed_reads,
        max_accumulated_reads=reliability.max_accumulated_reads,
        mean_accumulated_reads=reliability.mean_accumulated_reads,
        dynamic_energy_pj=energy.dynamic_pj,
        ecc_energy_pj=energy.ecc_decode_pj + energy.ecc_encode_pj,
        leakage_energy_pj=energy.leakage_pj,
        hit_rate=stats.hit_rate,
        read_fraction=stats.read_fraction,
        read_hit_latency_ns=cache.read_hit_latency_ns(),
    )


#: Engine names accepted by :func:`run_l2_trace` and the experiment layer.
ENGINE_CHOICES = ("reference", "fast", "auto")


def _check_engine(engine: str) -> None:
    if engine not in ENGINE_CHOICES:
        raise SimulationError(
            f"unknown engine {engine!r}; choose one of {ENGINE_CHOICES}"
        )


def _use_fast_path(cache: ProtectedCache, engine: str) -> bool:
    """Resolve the engine request; warn when ``"auto"`` must fall back.

    Telemetry sees every fallback occurrence (so ``repro-reap stats`` can
    count them).  The one-line warning goes through the stdlib registry, so
    under the default filter each caller line warns once per process
    instead of once per call.
    """
    if engine == "reference":
        return False
    from .fastpath import supports_fast_path

    supported, reason = supports_fast_path(cache)
    if engine == "fast" or supported:
        return True
    emit_event("engine.fallback", reason=reason)
    # stacklevel 3: warnings.warn <- this helper <- run_*_trace <- API caller.
    warnings.warn(
        f"engine='auto' fell back to the reference loop: "
        f"fast path does not support {reason}",
        RuntimeWarning,
        stacklevel=3,
    )
    return False


def _run_reference_loop(cache: ProtectedCache, segments) -> int:
    """The reference per-record loop over decoded segments."""
    scheme = cache.scheme_name()
    emit_event("sim.engine", engine="reference", path="l2", scheme=scheme)
    total = 0
    with span("reference.replay", scheme=scheme, path="l2") as replay_span:
        for kinds, addresses in segments:
            for kind_index, address in zip(kinds.tolist(), addresses.tolist()):
                if kind_index == _L2_READ_INDEX:
                    cache.read(address)
                elif kind_index == _L2_WRITE_INDEX:
                    cache.write(address)
                else:
                    raise SimulationError(
                        f"run_l2_trace expects L2-level records, got "
                        f"{KIND_ORDER[kind_index]}"
                    )
            total += len(kinds)
        replay_span.add(accesses=total)
    return total


def run_l2_trace(
    cache: ProtectedCache,
    trace: Trace | TraceSource,
    config: SimulationConfig | None = None,
    add_leakage: bool = True,
    engine: str = "auto",
) -> SchemeRunResult:
    """Drive a protected L2 cache with an L2-level trace.

    Args:
        cache: The protected cache to drive (mutated in place).
        trace: L2-level trace (``L2_READ`` / ``L2_WRITE`` records; CPU-level
            records are rejected).  Either an in-memory :class:`Trace` or a
            streaming :class:`~repro.workloads.streams.TraceSource` (from
            :func:`repro.workloads.open_trace`), replayed through its
            ``segments()``: one segment for an in-memory trace, segments of
            :data:`~repro.workloads.streams.DEFAULT_SEGMENT_ACCESSES` from a
            file, in bounded memory.  Results are bit-identical for every
            segmentation, since all cache, policy, accumulator and energy
            state lives on the cache between segments.
        config: Simulation configuration used for the time base; the default
            paper configuration is used when omitted.
        add_leakage: Whether to add leakage energy for the simulated time.
        engine: ``"auto"`` (the default) uses the batched engine in
            :mod:`repro.sim.fastpath` whenever it supports the cache and
            warns before falling back otherwise; ``"fast"`` raises if the
            cache is not fast-path capable; ``"reference"`` runs the
            per-record loop.  Both engines produce numerically identical
            results.

    Returns:
        A :class:`SchemeRunResult` snapshot taken after the whole trace ran.
    """
    _check_engine(engine)
    segments = trace.segments()
    config = config or SimulationConfig()
    if _use_fast_path(cache, engine):
        from .fastpath import replay_l2_segments

        total = replay_l2_segments(cache, segments)
    else:
        total = _run_reference_loop(cache, segments)
    simulated_time = simulated_time_for(total, config)
    if add_leakage:
        cache.add_leakage(simulated_time)
    return _snapshot(cache, trace.name, total, simulated_time)


def _run_cpu_reference_loop(hierarchy: CacheHierarchy, trace: Trace) -> None:
    """The reference per-record loop over a CPU-level trace."""
    scheme = hierarchy.l2.scheme_name()
    emit_event("sim.engine", engine="reference", path="cpu", scheme=scheme)
    kinds, addresses = trace.decoded()
    with span("reference.replay", scheme=scheme, path="cpu", accesses=len(trace)):
        for kind_index, address in zip(kinds.tolist(), addresses.tolist()):
            if kind_index == _IFETCH_INDEX:
                hierarchy.fetch_instruction(address)
            elif kind_index == _LOAD_INDEX:
                hierarchy.load(address)
            elif kind_index == _STORE_INDEX:
                hierarchy.store(address)
            else:
                raise SimulationError(
                    f"run_cpu_trace expects CPU-level records, got "
                    f"{KIND_ORDER[kind_index]}"
                )


def run_cpu_trace(
    l2_cache: ProtectedCache,
    trace: Trace,
    config: SimulationConfig | None = None,
    seed: int = 1,
    add_leakage: bool = True,
    engine: str = "auto",
) -> tuple[SchemeRunResult, CacheHierarchy]:
    """Drive the full two-level hierarchy with a CPU-level trace.

    Args:
        l2_cache: The protected L2 placed under the L1s (mutated in place).
        trace: CPU-level trace (``IFETCH`` / ``LOAD`` / ``STORE`` records).
        config: Simulation configuration (hierarchy geometry and time base).
        seed: Seed for the L1 replacement policies.
        add_leakage: Whether to add L2 leakage energy for the simulated
            time, matching :func:`run_l2_trace` (hierarchy energy results
            include the leakage term by default).
        engine: ``"auto"`` (the default) uses the batched engine in
            :mod:`repro.sim.fastpath` whenever it supports the L2 and warns
            before falling back otherwise; ``"fast"`` raises if the L2 is
            not fast-path capable; ``"reference"`` runs the per-record
            loop.  Both engines produce numerically identical results,
            including the L1 contents and hierarchy statistics.

    Returns:
        A (result, hierarchy) pair; the hierarchy gives access to L1
        statistics and the realised L2 request counts.
    """
    _check_engine(engine)
    config = config or SimulationConfig()
    hierarchy = CacheHierarchy(config.hierarchy, l2_cache, seed=seed)
    if _use_fast_path(l2_cache, engine):
        from .fastpath import _replay_cpu_trace

        _replay_cpu_trace(hierarchy, trace)
    else:
        _run_cpu_reference_loop(hierarchy, trace)
    # Time base: one CPU reference per cycle is a serviceable approximation
    # for an in-order front end feeding two levels of cache.
    simulated_time = len(trace) * config.cycle_time_s
    if add_leakage:
        l2_cache.add_leakage(simulated_time)
    l2_accesses = hierarchy.stats.l2_reads + hierarchy.stats.l2_writebacks
    result = _snapshot(l2_cache, trace.name, l2_accesses, simulated_time)
    return result, hierarchy
