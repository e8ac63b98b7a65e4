"""Result records produced by the simulation engine and experiment runner.

Every simulation of one (workload, scheme) pair yields a
:class:`SchemeRunResult` carrying the reliability, energy and functional
statistics needed by the figure builders.  :class:`WorkloadComparison` pairs
a baseline run with one or more alternative schemes and computes the
normalised metrics the paper reports (MTTF improvement, relative dynamic
energy).  Simple fixed-width text tables are provided for console output so
benches and examples can print paper-style rows without any plotting
dependency.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

from ..errors import AnalysisError
from ..reliability import MTTFResult, mttf_improvement


@dataclass(frozen=True)
class SchemeRunResult:
    """Outcome of running one workload trace through one protection scheme.

    Attributes:
        workload: Workload name.
        scheme: Protection scheme name.
        num_accesses: L2 accesses simulated.
        simulated_time_s: Wall-clock time the trace represents.
        expected_failures: Sum of per-delivery uncorrectable probabilities.
        checked_reads: Number of ECC-checked deliveries.
        concealed_reads: Number of concealed reads observed.
        max_accumulated_reads: Largest exposure window seen at a check.
        mean_accumulated_reads: Mean exposure window at check time.
        dynamic_energy_pj: Total dynamic energy.
        ecc_energy_pj: Dynamic energy spent in ECC encoders/decoders.
        leakage_energy_pj: Leakage energy over the simulated time.
        hit_rate: Demand hit rate of the cache.
        read_fraction: Fraction of demand accesses that were reads.
        read_hit_latency_ns: Read-hit latency of the scheme's read path.
        extra: Free-form additional metrics.
    """

    workload: str
    scheme: str
    num_accesses: int
    simulated_time_s: float
    expected_failures: float
    checked_reads: int
    concealed_reads: int
    max_accumulated_reads: int
    mean_accumulated_reads: float
    dynamic_energy_pj: float
    ecc_energy_pj: float
    leakage_energy_pj: float
    hit_rate: float
    read_fraction: float
    read_hit_latency_ns: float
    extra: Mapping[str, float] = field(default_factory=dict)

    @property
    def mttf(self) -> MTTFResult:
        """MTTF summary of the run."""
        return MTTFResult(
            expected_failures=self.expected_failures,
            simulated_time_s=self.simulated_time_s,
            num_accesses=self.checked_reads,
        )

    @property
    def failure_rate_per_access(self) -> float:
        """Average uncorrectable probability per checked delivery."""
        if self.checked_reads == 0:
            return 0.0
        return self.expected_failures / self.checked_reads


@dataclass(frozen=True)
class WorkloadComparison:
    """Baseline-vs-alternatives comparison for one workload."""

    workload: str
    baseline: SchemeRunResult
    alternatives: tuple[SchemeRunResult, ...]

    def alternative(self, scheme: str) -> SchemeRunResult:
        """Return the alternative run for a scheme name.

        Raises:
            AnalysisError: if the scheme was not part of the comparison.
        """
        for run in self.alternatives:
            if run.scheme == scheme:
                return run
        raise AnalysisError(
            f"scheme {scheme!r} not present in comparison for {self.workload!r}"
        )

    def mttf_improvement(self, scheme: str = "reap") -> float:
        """MTTF of ``scheme`` normalised to the baseline (Fig. 5 metric)."""
        return mttf_improvement(self.baseline.mttf, self.alternative(scheme).mttf)

    def relative_dynamic_energy(self, scheme: str = "reap") -> float:
        """Dynamic energy of ``scheme`` normalised to the baseline (Fig. 6 metric)."""
        if self.baseline.dynamic_energy_pj == 0:
            raise AnalysisError("baseline dynamic energy is zero")
        return (
            self.alternative(scheme).dynamic_energy_pj
            / self.baseline.dynamic_energy_pj
        )

    def energy_overhead_percent(self, scheme: str = "reap") -> float:
        """Dynamic-energy overhead of ``scheme`` in percent."""
        return (self.relative_dynamic_energy(scheme) - 1.0) * 100.0


def run_result_to_dict(result: SchemeRunResult) -> dict[str, Any]:
    """Serialise one scheme run to a plain dictionary."""
    payload = asdict(result)
    payload["extra"] = dict(result.extra)
    return payload


def comparison_to_dict(comparison: WorkloadComparison) -> dict[str, Any]:
    """Serialise a workload comparison to a plain dictionary.

    The one result serialiser: campaign stores write it as is, and the JSON
    export adds the derived metrics beside it.
    """
    return {
        "workload": comparison.workload,
        "baseline": run_result_to_dict(comparison.baseline),
        "alternatives": [run_result_to_dict(r) for r in comparison.alternatives],
    }


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], precision: int = 3
) -> str:
    """Render a fixed-width text table.

    Args:
        headers: Column headers.
        rows: Row values; floats are formatted, other types ``str()``-ed.
        precision: Significant digits used for floats.

    Returns:
        The formatted table as a single string.
    """
    if any(len(row) != len(headers) for row in rows):
        raise AnalysisError("every row must have one value per header")

    def fmt(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            if value == 0.0:
                return "0"
            if math.isinf(value):
                return "inf"
            if abs(value) >= 1e4 or abs(value) < 1e-3:
                return f"{value:.{precision}e}"
            return f"{value:.{precision}g}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)
