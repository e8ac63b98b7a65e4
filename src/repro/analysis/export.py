"""CSV / JSON export of figure data and comparison results.

The figure builders return plain dataclasses; these helpers serialise them to
CSV (one row per bar / bin) and JSON so the series can be re-plotted with any
external tool, archived next to EXPERIMENTS.md, or diffed between runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import AnalysisError
from ..sim import results
from ..sim.results import WorkloadComparison
from .figures import Figure3Series, Figure5Data, Figure6Data


def _write_csv(path: str | Path, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
    return path


def figure3_to_csv(series: Figure3Series, path: str | Path) -> Path:
    """Write one Fig. 3 panel as CSV (one row per histogram bin)."""
    return _write_csv(
        path,
        ["workload", "concealed_reads", "accesses", "normalized_frequency", "failure_rate"],
        (
            [series.workload, b.concealed_reads, b.accesses, b.normalized_frequency, b.failure_rate]
            for b in series.bins
        ),
    )


def figure5_to_csv(data: Figure5Data, path: str | Path) -> Path:
    """Write the Fig. 5 series as CSV (one row per workload)."""
    return _write_csv(
        path,
        [
            "workload",
            "mttf_improvement",
            "baseline_expected_failures",
            "reap_expected_failures",
            "max_concealed_reads",
        ],
        (
            [
                r.workload,
                r.mttf_improvement,
                r.baseline_expected_failures,
                r.reap_expected_failures,
                r.max_concealed_reads,
            ]
            for r in data.rows
        ),
    )


def figure6_to_csv(data: Figure6Data, path: str | Path) -> Path:
    """Write the Fig. 6 series as CSV (one row per workload)."""
    return _write_csv(
        path,
        ["workload", "relative_dynamic_energy", "overhead_percent", "read_fraction", "hit_rate"],
        (
            [r.workload, r.relative_dynamic_energy, r.overhead_percent, r.read_fraction, r.hit_rate]
            for r in data.rows
        ),
    )


def comparison_to_dict(comparison: WorkloadComparison) -> dict:
    """Serialise one workload comparison (baseline + alternatives + metrics)."""
    payload = {**results.comparison_to_dict(comparison), "metrics": {}}
    for alternative in comparison.alternatives:
        payload["metrics"][alternative.scheme] = {
            "mttf_improvement": comparison.mttf_improvement(alternative.scheme),
            "relative_dynamic_energy": comparison.relative_dynamic_energy(alternative.scheme),
            "energy_overhead_percent": comparison.energy_overhead_percent(alternative.scheme),
        }
    return payload


def comparisons_to_json(
    comparisons: Sequence[WorkloadComparison], path: str | Path
) -> Path:
    """Write a list of workload comparisons to a JSON file."""
    if not comparisons:
        raise AnalysisError("no comparisons to export")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [comparison_to_dict(c) for c in comparisons]
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_comparisons_summary(path: str | Path) -> list[dict]:
    """Load the summary written by :func:`comparisons_to_json`."""
    return json.loads(Path(path).read_text())
