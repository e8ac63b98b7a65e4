"""Trace-driven simulation engine, experiment orchestration and results.

Public surface:

* :func:`run_l2_trace` / :func:`run_cpu_trace` — drive a protected cache or
  the full hierarchy with a trace.  Both accept an ``engine`` argument
  selecting the batched fast path (:mod:`repro.sim.fastpath`, backed by the
  structure-of-arrays kernel in :mod:`repro.sim.soa`) or the per-record
  reference loop that serves as its oracle; the two are numerically
  identical.
* :func:`replay_l2_segments` / :func:`supports_fast_path` — the batched
  L2 engine and its capability probe.
* :func:`compare_schemes`, :class:`ExperimentRunner`, :func:`sweep`,
  :class:`ExperimentSettings` — experiment orchestration; always on the
  fast path (the default engine of the two trace runners above), with no
  engine option.
* :class:`SchemeRunResult`, :class:`WorkloadComparison`, :func:`format_table`
  — results and console tables.
"""

from .engine import (
    ENGINE_CHOICES,
    run_cpu_trace,
    run_l2_trace,
    simulated_time_for,
)
from .experiment import (
    ExperimentRunner,
    ExperimentSettings,
    compare_schemes,
    run_workload,
    sweep,
)
from .fastpath import (
    replay_l2_segments,
    supports_fast_path,
)
from .results import SchemeRunResult, WorkloadComparison, format_table

__all__ = [
    "run_l2_trace",
    "replay_l2_segments",
    "supports_fast_path",
    "run_cpu_trace",
    "simulated_time_for",
    "ENGINE_CHOICES",
    "ExperimentRunner",
    "ExperimentSettings",
    "compare_schemes",
    "run_workload",
    "sweep",
    "SchemeRunResult",
    "WorkloadComparison",
    "format_table",
]
