"""The benchmark's four workloads, each driven through the public ``repro`` API.

A workload has a one-time ``setup(seed, workdir)`` that builds its inputs
from the seed, and a ``run(state)`` that performs one *pass* — the unit the
benchmark times — and returns a :class:`PassResult`: the simulated accesses
the pass represents, one sha256 digest per checked operation, and the
modelled (simulated, exact) statistics.  ``verify(state)`` digests the
generated inputs themselves (``Trace.content_hash()`` of every trace); it
runs once per benchmark run, outside the timed window.

Everything is closed-loop and serial: one process, ``backend="serial"``,
``engine="auto"``/``kernel="auto"`` throughout.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.analysis.figures import (
    build_figure3,
    comparisons_to_figure5,
    comparisons_to_figure6,
)
from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.campaign.store import comparison_to_dict
from repro.config import SimulationConfig
from repro.core import build_protected_cache
from repro.sim import ExperimentRunner, ExperimentSettings, run_cpu_trace
from repro.workloads import (
    FIGURE3_WORKLOADS,
    ArtifactCache,
    all_profiles,
    generate_l2_trace,
    get_profile,
    hot_loop_trace,
    mixed_trace,
    pointer_chase_trace,
    sequential_trace,
)

#: L2 accesses per profile in ``fig5_suite`` (24 profiles x 2 schemes).
FIG5_ACCESSES = 5_000
#: L2 accesses per panel in ``fig3_panels`` (4 panels, conventional only).
FIG3_ACCESSES = 3_000
#: L2 accesses per job in ``pcell_sweep`` (12 jobs x 4 schemes).
SWEEP_ACCESSES = 20_000
#: The 12 swept per-cell disturbance probabilities.
SWEEP_POINTS = tuple(1e-9 * (index + 1) for index in range(12))
#: CPU references in the ``hierarchy_mix`` trace (x 2 schemes).
MIX_REFERENCES = 60_000

#: Paper values ``paper_gap`` measures against: Fig. 5 mean MTTF gain, the
#: mcf gain (the suite's worst case) and Fig. 6 mean energy overhead (%).
PAPER_FIG5_MEAN = 171.0
PAPER_MCF_GAIN = 7.9
PAPER_FIG6_MEAN_PERCENT = 2.7


def digest(payload: Any) -> str:
    """sha256 of the canonical JSON form of ``payload`` (exact float repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """What one pass of a workload produced.

    Attributes:
        accesses: Simulated accesses the pass represents (trace length x
            schemes; CPU references x schemes for the hierarchy).
        outputs: Operation name -> sha256 digest of that operation's output.
        runs: Every :class:`~repro.sim.SchemeRunResult` of the pass.
        l2_writebacks: L1D write-backs the L2 saw (hierarchy only).
        paper_gap: Mean |log10(measured / paper)| (Fig. 5/6 only).
    """

    accesses: int
    outputs: dict[str, str]
    runs: list = field(default_factory=list)
    l2_writebacks: int = 0
    paper_gap: float | None = None

    def modelled(self) -> dict[str, float]:
        """Simulated statistics; a speed-only change leaves them identical."""
        total = sum(run.num_accesses for run in self.runs)
        hits = sum(run.hit_rate * run.num_accesses for run in self.runs)
        return {
            "l2.accesses": total,
            "l2.hit_rate": hits / total if total else 0.0,
            "l2.max_concealed_reads": max(
                (run.max_accumulated_reads for run in self.runs), default=0
            ),
            "hierarchy.l2_writebacks": self.l2_writebacks,
        }


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    setup: Callable[[int, Path], Any]
    run: Callable[[Any], PassResult]
    verify: Callable[[Any], dict[str, str]]


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# ---------------------------------------------------------------------------
# fig5_suite
# ---------------------------------------------------------------------------


@dataclass
class _SuiteState:
    settings: ExperimentSettings
    names: list[str]


def _fig5_setup(seed: int, workdir: Path) -> _SuiteState:
    return _SuiteState(
        settings=ExperimentSettings(num_accesses=FIG5_ACCESSES, seed=seed),
        names=[profile.name for profile in all_profiles()],
    )


def paper_gap(figure5, figure6) -> float:
    """Mean |log10(measured / paper)| over the three headline numbers."""
    pairs = (
        (figure5.average_improvement, PAPER_FIG5_MEAN),
        (figure5.row("mcf").mttf_improvement, PAPER_MCF_GAIN),
        (figure6.average_overhead_percent, PAPER_FIG6_MEAN_PERCENT),
    )
    return sum(abs(math.log10(measured / paper)) for measured, paper in pairs) / 3


def _fig5_run(state: _SuiteState) -> PassResult:
    comparisons = ExperimentRunner(state.names, settings=state.settings).run()
    figure5 = comparisons_to_figure5(comparisons)
    figure6 = comparisons_to_figure6(comparisons)
    _check(len(figure5.rows) == len(state.names), "Fig. 5 lost a workload")
    _check(
        all(row.mttf_improvement >= 1.0 for row in figure5.rows),
        "REAP MTTF below the conventional cache",
    )
    _check(
        all(row.overhead_percent > 0.0 for row in figure6.rows),
        "REAP energy overhead not positive",
    )
    outputs = {
        f"job:{comparison.workload}": digest(comparison_to_dict(comparison))
        for comparison in comparisons
    }
    outputs["figure5"] = digest(asdict(figure5))
    outputs["figure6"] = digest(asdict(figure6))
    runs = [run for c in comparisons for run in (c.baseline, *c.alternatives)]
    return PassResult(
        accesses=sum(run.num_accesses for run in runs),
        outputs=outputs,
        runs=runs,
        paper_gap=paper_gap(figure5, figure6),
    )


def _fig5_verify(state: _SuiteState) -> dict[str, str]:
    # Campaign jobs stride the seed by workload index.
    settings = state.settings
    return {
        f"trace:{name}": generate_l2_trace(
            get_profile(name),
            settings.l2_config,
            settings.num_accesses,
            seed=settings.seed + index,
        ).content_hash()
        for index, name in enumerate(state.names)
    }


# ---------------------------------------------------------------------------
# fig3_panels
# ---------------------------------------------------------------------------


def _fig3_setup(seed: int, workdir: Path) -> ExperimentSettings:
    return ExperimentSettings(num_accesses=FIG3_ACCESSES, seed=seed)


def _fig3_run(settings: ExperimentSettings) -> PassResult:
    outputs = {}
    runs = []
    for name in FIGURE3_WORKLOADS:
        series = build_figure3(name, settings=settings)
        _check(series.total_failure_rate > 0.0, f"{name}: zero failure rate")
        _check(0.0 <= series.tail_dominance <= 1.0, f"{name}: tail share")
        outputs[f"panel:{name}"] = digest(asdict(series))
        runs.append(series.run)
    return PassResult(
        accesses=sum(run.num_accesses for run in runs), outputs=outputs, runs=runs
    )


def _fig3_verify(settings: ExperimentSettings) -> dict[str, str]:
    return {
        f"trace:{name}": generate_l2_trace(
            get_profile(name),
            settings.l2_config,
            settings.num_accesses,
            seed=settings.seed,
        ).content_hash()
        for name in FIGURE3_WORKLOADS
    }


# ---------------------------------------------------------------------------
# pcell_sweep
# ---------------------------------------------------------------------------


@dataclass
class _SweepState:
    spec: CampaignSpec
    cache_dir: Path
    store_dir: Path
    passes: int = 0


def _sweep_setup(seed: int, workdir: Path) -> _SweepState:
    """Generate the gcc trace once and publish it into a fresh artifact cache."""
    settings = ExperimentSettings(num_accesses=SWEEP_ACCESSES, seed=seed)
    spec = CampaignSpec(
        name="pcell-sweep",
        workloads=("gcc",),
        base_settings=settings,
        baseline="conventional",
        alternatives=("reap", "restore", "scrubbing"),
        sweep=(("p_cell", SWEEP_POINTS),),
    )
    cache_dir = Path(workdir) / "artifacts"
    shutil.rmtree(cache_dir, ignore_errors=True)
    ArtifactCache(cache_dir).l2_trace(
        get_profile("gcc"), settings.l2_config, settings.num_accesses, settings.seed
    )
    store_dir = Path(workdir) / "stores"
    store_dir.mkdir(parents=True, exist_ok=True)
    return _SweepState(spec=spec, cache_dir=cache_dir, store_dir=store_dir)


def _sweep_run(state: _SweepState) -> PassResult:
    state.passes += 1
    store_path = state.store_dir / f"pass-{state.passes}.jsonl"
    store = ResultStore(store_path)
    result = run_campaign(
        state.spec, store=store, backend="serial", artifact_cache=state.cache_dir
    )
    _check(result.executed == len(SWEEP_POINTS), "sweep served jobs from the store")
    outputs = {}
    runs = []
    for outcome in result.outcomes:
        outputs[f"entry:p_cell={outcome.job.settings.p_cell!r}"] = hashlib.sha256(
            store.payload_line(outcome.job.key).encode("utf-8")
        ).hexdigest()
        comparison = outcome.comparison
        _check(
            comparison.mttf_improvement("reap") >= 1.0,
            "REAP MTTF below the conventional cache",
        )
        runs.extend((comparison.baseline, *comparison.alternatives))
    store_path.unlink()
    return PassResult(
        accesses=sum(run.num_accesses for run in runs), outputs=outputs, runs=runs
    )


def _sweep_verify(state: _SweepState) -> dict[str, str]:
    settings = state.spec.base_settings
    trace = generate_l2_trace(
        get_profile("gcc"), settings.l2_config, settings.num_accesses, seed=settings.seed
    )
    return {"trace:gcc": trace.content_hash()}


# ---------------------------------------------------------------------------
# hierarchy_mix
# ---------------------------------------------------------------------------


@dataclass
class _MixState:
    trace: Any
    seed: int
    settings: ExperimentSettings
    config: SimulationConfig


def build_cpu_mix(num_references: int, seed: int):
    """Hot loop + pointer chase + streaming with 20% stores, interleaved."""
    return mixed_trace(
        "cpu-bench-mix",
        [
            hot_loop_trace(num_accesses=num_references // 2, seed=seed),
            pointer_chase_trace(num_accesses=num_references // 4, seed=seed + 1),
            sequential_trace(
                num_accesses=num_references // 4, store_fraction=0.2, seed=seed + 2
            ),
        ],
        seed=seed + 3,
    )


def _mix_setup(seed: int, workdir: Path) -> _MixState:
    return _MixState(
        trace=build_cpu_mix(MIX_REFERENCES, seed),
        seed=seed,
        settings=ExperimentSettings(num_accesses=MIX_REFERENCES, seed=seed),
        config=SimulationConfig(),
    )


def _mix_run(state: _MixState) -> PassResult:
    outputs = {}
    runs = []
    writebacks = 0
    first_stats = None
    for index, scheme in enumerate(("conventional", "reap")):
        cache_seed = state.seed + index
        cache = build_protected_cache(
            scheme,
            state.config.hierarchy.l2,
            p_cell=state.settings.p_cell,
            data_profile=state.settings.data_profile(cache_seed),
            seed=cache_seed,
        )
        result, hierarchy = run_cpu_trace(
            cache, state.trace, config=state.config, seed=cache_seed, engine="auto"
        )
        stats = dict(vars(hierarchy.stats))
        _check(
            result.num_accesses == stats["l2_reads"] + stats["l2_writebacks"],
            "L2 accesses differ from the L1 misses and write-backs",
        )
        # The L2 scheme must not change what the L1s send it.
        _check(first_stats in (None, stats), "L1 traffic depends on the L2 scheme")
        first_stats = stats
        outputs[f"run:{scheme}"] = digest(
            {"result": asdict(result), "hierarchy": stats}
        )
        runs.append(result)
        writebacks += stats["l2_writebacks"]
    return PassResult(
        accesses=len(state.trace) * len(runs),
        outputs=outputs,
        runs=runs,
        l2_writebacks=writebacks,
    )


def _mix_verify(state: _MixState) -> dict[str, str]:
    return {"trace:cpu-mix": state.trace.content_hash()}


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fig5_suite",
            "Fig. 5/6 over all 24 profiles, conventional vs REAP, uncached: "
            "trace generation is the wall",
            _fig5_setup,
            _fig5_run,
            _fig5_verify,
        ),
        Workload(
            "fig3_panels",
            "the four Fig. 3 panels: the concealed-read histogram analysis is "
            "the wall, the kernel is nearly idle",
            _fig3_setup,
            _fig3_run,
            _fig3_verify,
        ),
        Workload(
            "pcell_sweep",
            "12-point p_cell campaign on gcc over a warm artifact cache: SoA "
            "pass 1 + pass 2 are the wall, generation is bypassed",
            _sweep_setup,
            _sweep_run,
            _sweep_verify,
        ),
        Workload(
            "hierarchy_mix",
            "CPU mix through the paper L1/L2 hierarchy: the only workload "
            "that measures the L1 filter",
            _mix_setup,
            _mix_run,
            _mix_verify,
        ),
    )
}
