"""Builders for the paper's figures (data series, no plotting dependency).

Each builder returns plain dataclasses containing exactly the series the
corresponding paper figure plots, so they can be printed as text tables,
dumped to CSV, or plotted by the user's tool of choice.

* :func:`build_figure3` — Fig. 3: concealed-read count histogram and its
  failure-rate contribution for one workload.
* :func:`build_figure5` — Fig. 5: per-workload MTTF of REAP normalised to the
  conventional cache.
* :func:`build_figure6` — Fig. 6: per-workload dynamic energy of REAP
  normalised to the conventional cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core import ProtectionScheme
from ..errors import AnalysisError
from ..reliability import ConcealedReadHistogram, HistogramBin
from ..sim import (
    ExperimentRunner,
    ExperimentSettings,
    SchemeRunResult,
    WorkloadComparison,
    run_workload,
)
from ..workloads import FIGURE3_WORKLOADS, all_profiles


# ---------------------------------------------------------------------------
# Fig. 3 — concealed-read distribution and failure contribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure3Series:
    """The two Fig. 3 curves for one workload.

    Attributes:
        workload: Workload name.
        bins: Histogram bins (concealed reads, normalised frequency,
            failure-rate contribution).
        total_failure_rate: Sum of all per-delivery failure probabilities.
        max_concealed_reads: Largest concealed-read count observed.
        tail_dominance: Fraction of the failure rate contributed by the
            upper half of the concealed-read axis (the paper's headline
            observation is that this is large despite tiny frequencies).
        run: The underlying conventional-cache run.
    """

    workload: str
    bins: tuple[HistogramBin, ...]
    total_failure_rate: float
    max_concealed_reads: int
    tail_dominance: float
    run: SchemeRunResult


def build_figure3(
    workload: str,
    settings: ExperimentSettings | None = None,
    num_bins: int = 40,
) -> Figure3Series:
    """Reproduce one panel of Fig. 3 for a named workload.

    The conventional (parallel-access) cache is simulated, every demand
    delivery records how many concealed reads the line had accumulated, and
    the samples are folded into the frequency / failure-rate histogram.
    """
    settings = settings or ExperimentSettings()
    if not settings.track_accumulation:
        raise AnalysisError("Fig. 3 requires accumulation tracking to be enabled")
    result, cache = run_workload(
        workload, ProtectionScheme.CONVENTIONAL, settings=settings
    )
    tracker = cache.tracker
    if tracker is None or len(tracker) == 0:
        raise AnalysisError(f"no deliveries recorded for workload {workload!r}")
    histogram = ConcealedReadHistogram(
        tracker,
        p_cell=cache.p_cell,
        correctable=cache.ecc.correctable_errors,
        num_bins=num_bins,
    )
    return Figure3Series(
        workload=result.workload,
        bins=tuple(histogram.bins()),
        total_failure_rate=histogram.total_failure_rate(),
        max_concealed_reads=tracker.max_concealed_reads,
        tail_dominance=histogram.tail_dominance_ratio(),
        run=result,
    )


def build_figure3_all(
    workloads: Sequence[str] = FIGURE3_WORKLOADS,
    settings: ExperimentSettings | None = None,
) -> dict[str, Figure3Series]:
    """Reproduce all four Fig. 3 panels (or any chosen subset)."""
    return {
        name: build_figure3(name, settings=settings) for name in workloads
    }


# ---------------------------------------------------------------------------
# Fig. 5 — MTTF improvement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure5Row:
    """One bar of Fig. 5."""

    workload: str
    mttf_improvement: float
    baseline_expected_failures: float
    reap_expected_failures: float
    max_concealed_reads: int


@dataclass(frozen=True)
class Figure5Data:
    """The full Fig. 5 series plus its summary statistics."""

    rows: tuple[Figure5Row, ...]
    average_improvement: float
    min_improvement: float
    max_improvement: float

    def row(self, workload: str) -> Figure5Row:
        """Return the row for one workload."""
        for row in self.rows:
            if row.workload == workload:
                return row
        raise AnalysisError(f"workload {workload!r} not in Fig. 5 data")


def build_figure5(
    workloads: Sequence[str] | None = None,
    settings: ExperimentSettings | None = None,
) -> Figure5Data:
    """Reproduce Fig. 5: REAP MTTF normalised to the conventional cache."""
    return comparisons_to_figure5(_reap_comparisons(workloads, settings))


def _reap_comparisons(
    workloads: Sequence[str] | None, settings: ExperimentSettings | None
) -> list[WorkloadComparison]:
    """Conventional-vs-REAP runs over ``workloads`` (default: all profiles)."""
    names = list(workloads) if workloads is not None else [p.name for p in all_profiles()]
    runner = ExperimentRunner(
        names,
        settings=settings,
        baseline=ProtectionScheme.CONVENTIONAL,
        alternatives=(ProtectionScheme.REAP,),
    )
    return runner.run()


# ---------------------------------------------------------------------------
# Fig. 6 — dynamic energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure6Row:
    """One bar of Fig. 6."""

    workload: str
    relative_dynamic_energy: float
    overhead_percent: float
    read_fraction: float
    hit_rate: float


@dataclass(frozen=True)
class Figure6Data:
    """The full Fig. 6 series plus its summary statistics."""

    rows: tuple[Figure6Row, ...]
    average_overhead_percent: float
    min_overhead_percent: float
    max_overhead_percent: float

    def row(self, workload: str) -> Figure6Row:
        """Return the row for one workload."""
        for row in self.rows:
            if row.workload == workload:
                return row
        raise AnalysisError(f"workload {workload!r} not in Fig. 6 data")


def build_figure6(
    workloads: Sequence[str] | None = None,
    settings: ExperimentSettings | None = None,
) -> Figure6Data:
    """Reproduce Fig. 6: REAP dynamic energy normalised to the conventional cache."""
    return comparisons_to_figure6(_reap_comparisons(workloads, settings))


def comparisons_to_figure5(comparisons: Sequence[WorkloadComparison]) -> Figure5Data:
    """Build Fig. 5 data from pre-computed comparisons (avoids re-simulation)."""
    rows = tuple(
        Figure5Row(
            workload=c.workload,
            mttf_improvement=c.mttf_improvement("reap"),
            baseline_expected_failures=c.baseline.expected_failures,
            reap_expected_failures=c.alternative("reap").expected_failures,
            max_concealed_reads=c.baseline.max_accumulated_reads,
        )
        for c in comparisons
    )
    if not rows:
        raise AnalysisError("no comparisons supplied")
    improvements = [r.mttf_improvement for r in rows]
    return Figure5Data(
        rows=rows,
        average_improvement=sum(improvements) / len(improvements),
        min_improvement=min(improvements),
        max_improvement=max(improvements),
    )


def comparisons_to_figure6(comparisons: Sequence[WorkloadComparison]) -> Figure6Data:
    """Build Fig. 6 data from pre-computed comparisons (avoids re-simulation)."""
    rows = tuple(
        Figure6Row(
            workload=c.workload,
            relative_dynamic_energy=c.relative_dynamic_energy("reap"),
            overhead_percent=c.energy_overhead_percent("reap"),
            read_fraction=c.baseline.read_fraction,
            hit_rate=c.baseline.hit_rate,
        )
        for c in comparisons
    )
    if not rows:
        raise AnalysisError("no comparisons supplied")
    overheads = [r.overhead_percent for r in rows]
    return Figure6Data(
        rows=rows,
        average_overhead_percent=sum(overheads) / len(overheads),
        min_overhead_percent=min(overheads),
        max_overhead_percent=max(overheads),
    )
