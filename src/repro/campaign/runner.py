"""Campaign execution: pluggable backends over a cached result store.

The runner expands a :class:`~repro.campaign.spec.CampaignSpec` (or takes an
explicit job list), skips every job whose key is already in the result
store, and hands the rest to an :class:`~repro.campaign.backend
.ExecutionBackend` — in-process, a local ``multiprocessing`` pool, or a TCP
coordinator feeding remote workers.  Each job is an independent
deterministic simulation, so every backend produces byte-identical store
entries; only completion order differs, and outcomes are reported back in
spec order regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from ..errors import CampaignError
from ..sim.engine import ENGINE_CHOICES
from ..sim.results import WorkloadComparison
from ..telemetry import emit_event, span
from .backend import ExecutionBackend, resolve_backend
from .execution import execute_payload, job_accesses, payload_for
from .spec import CampaignSpec, JobSpec
from .store import BaseResultStore, comparison_from_dict

# Retained as the multiprocessing entry point name older pickles may hold.
_execute_job = execute_payload


@dataclass(frozen=True)
class JobOutcome:
    """One finished job: its spec, result, and how it was obtained.

    Attributes:
        job: The job specification.
        comparison: The comparison result (from cache or fresh execution).
        elapsed_s: Execution wall time; ``0.0`` for cache hits.
        cached: ``True`` when the result came from the store without running.
    """

    job: JobSpec
    comparison: WorkloadComparison
    elapsed_s: float
    cached: bool


@dataclass(frozen=True)
class CampaignResult:
    """Everything a finished campaign run produced.

    Attributes:
        outcomes: One outcome per job, in spec order.
        executed: Number of jobs actually simulated this run.
        cached: Number of jobs satisfied from the result store.
        elapsed_s: Wall time of the whole run.
        workers: Worker parallelism used (1 = serial).
        backend: Name of the execution backend that ran the jobs.
    """

    outcomes: tuple[JobOutcome, ...]
    executed: int
    cached: int
    elapsed_s: float
    workers: int
    backend: str = "serial"

    @property
    def comparisons(self) -> list[WorkloadComparison]:
        """The comparison results, in spec order."""
        return [outcome.comparison for outcome in self.outcomes]


class CampaignRunner:
    """Executes a campaign against an optional persistent result store.

    Args:
        spec: A campaign specification, or an explicit job list for callers
            (like :func:`repro.sim.sweep`) that build jobs directly.
        store: Result store for caching/resumability; ``None`` disables
            persistence and every job executes.  Accepts the single-file
            :class:`~repro.campaign.ResultStore` and the directory-backed
            :class:`~repro.campaign.ShardedResultStore` interchangeably.
        jobs: Worker processes for the default local backend; ``1`` (the
            default) runs serially in-process.
        engine: Simulation engine every job runs under (``"reference"``,
            ``"fast"`` or ``"auto"``, the default).  Engines are numerically
            identical, so store entries stay byte-identical across engine
            choices and the engine is deliberately *not* part of the job key.
        backend: Execution backend — an
            :class:`~repro.campaign.backend.ExecutionBackend` instance, or
            one of the spellings ``"serial"``, ``"local"``,
            ``"tcp://HOST:PORT"``.  Like the engine, the backend
            selects *where* jobs run, never *what* they compute, so it is
            not part of job identity and all backends fill stores with
            byte-identical entries.
        artifact_cache: Optional artifact-cache directory rode along with
            every payload (see :mod:`repro.workloads.artifacts`): workers
            serve decoded traces from it so a sweep decodes each workload
            once per machine.  Purely operational — results and store
            entries are byte-identical with the cache cold, warm or
            disabled, and the knob never enters job identity.
    """

    def __init__(
        self,
        spec: CampaignSpec | Sequence[JobSpec],
        store: BaseResultStore | None = None,
        jobs: int = 1,
        engine: str = "auto",
        backend: str | ExecutionBackend | None = None,
        artifact_cache: str | Path | None = None,
    ) -> None:
        if isinstance(spec, CampaignSpec):
            self._jobs_list = spec.jobs()
        else:
            self._jobs_list = list(spec)
            if not all(isinstance(j, JobSpec) for j in self._jobs_list):
                raise CampaignError("explicit job lists must contain JobSpec objects")
        if not self._jobs_list:
            raise CampaignError("campaign expanded to zero jobs")
        if jobs < 1:
            raise CampaignError("jobs must be >= 1")
        if engine not in ENGINE_CHOICES:
            raise CampaignError(
                f"unknown engine {engine!r}; choose one of {ENGINE_CHOICES}"
            )
        self._store = store
        self._backend = resolve_backend(backend, jobs)
        self._engine = engine
        self._artifact_cache = (
            str(artifact_cache) if artifact_cache is not None else None
        )

    @property
    def jobs_list(self) -> list[JobSpec]:
        """The expanded job list, in execution (spec) order."""
        return list(self._jobs_list)

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend this runner hands pending jobs to."""
        return self._backend

    def run(
        self, progress: Callable[[JobOutcome], None] | None = None
    ) -> CampaignResult:
        """Execute the campaign and return all outcomes in spec order.

        Args:
            progress: Optional callback invoked with each :class:`JobOutcome`
                as it completes (cache hits first, then executed jobs in
                completion order).
        """
        run_span = span(
            "campaign.run",
            jobs=len(self._jobs_list),
            workers=self._backend.workers,
            backend=self._backend.name,
            engine=self._engine,
        ).start()
        by_key: dict[str, JobOutcome] = {}
        pending: dict[str, JobSpec] = {}

        for job in self._jobs_list:
            key = job.key
            if key in by_key or key in pending:
                continue
            cached = self._store.get(key) if self._store is not None else None
            if cached is not None:
                outcome = JobOutcome(
                    job=job, comparison=cached, elapsed_s=0.0, cached=True
                )
                by_key[key] = outcome
                self._emit_job_event(outcome)
                if progress is not None:
                    progress(outcome)
            else:
                pending[key] = job

        try:
            if pending:
                payloads = [
                    payload_for(
                        job,
                        engine=self._engine,
                        artifact_cache=self._artifact_cache,
                    )
                    for job in pending.values()
                ]
                for key, result, elapsed in self._backend.execute(payloads):
                    comparison = comparison_from_dict(result)
                    self._record(pending[key], comparison, elapsed, by_key, progress)
        finally:
            # Even a fully-cached run releases the backend: a TCP
            # coordinator must stop serving so idle workers shut down and
            # its port is freed.
            self._backend.close()

        missing = [job for job in self._jobs_list if job.key not in by_key]
        if missing:
            # A backend that under-delivers (quarantined jobs, a resumed
            # coordinator serving a different job set) must fail with the
            # campaign's vocabulary, not a KeyError.
            labels = ", ".join(
                f"{job.workload}@{job.point_label}" for job in missing[:5]
            )
            raise CampaignError(
                f"backend {self._backend.describe()} completed without "
                f"delivering {len(missing)} of {len(self._jobs_list)} jobs "
                f"({labels}{', ...' if len(missing) > 5 else ''}); "
                "check quarantine reports and re-run to retry"
            )
        outcomes = tuple(by_key[job.key] for job in self._jobs_list)
        executed = sum(1 for o in by_key.values() if not o.cached)
        cached_count = len(by_key) - executed
        run_span.add(executed=executed, cached=cached_count)
        run_span.finish()
        return CampaignResult(
            outcomes=outcomes,
            executed=executed,
            cached=cached_count,
            elapsed_s=run_span.duration_s,
            workers=self._backend.workers,
            backend=self._backend.name,
        )

    @staticmethod
    def _emit_job_event(outcome: JobOutcome) -> None:
        """One ``campaign.job`` telemetry event per finished job.

        Cache hits report zero accesses so throughput aggregations count
        only simulated work.
        """
        emit_event(
            "campaign.job",
            workload=outcome.job.workload,
            point=outcome.job.point_label,
            cached=outcome.cached,
            elapsed_s=outcome.elapsed_s,
            accesses=0 if outcome.cached else job_accesses(outcome.job),
        )

    def _record(
        self,
        job: JobSpec,
        comparison: WorkloadComparison,
        elapsed: float,
        by_key: dict[str, JobOutcome],
        progress: Callable[[JobOutcome], None] | None,
    ) -> None:
        if self._store is not None:
            self._store.put(job, comparison)
        outcome = JobOutcome(
            job=job, comparison=comparison, elapsed_s=elapsed, cached=False
        )
        by_key[job.key] = outcome
        self._emit_job_event(outcome)
        if progress is not None:
            progress(outcome)


def run_campaign(
    spec: CampaignSpec | Sequence[JobSpec],
    store: BaseResultStore | str | Path | None = None,
    jobs: int = 1,
    progress: Callable[[JobOutcome], None] | None = None,
    engine: str = "auto",
    backend: str | ExecutionBackend | None = None,
    artifact_cache: str | Path | None = None,
) -> CampaignResult:
    """One-shot convenience wrapper around :class:`CampaignRunner`.

    Args:
        spec: Campaign specification or explicit job list.
        store: Result store, a path to open one at (``.jsonl`` file or
            sharded directory, see :func:`repro.campaign.open_store`), or
            ``None`` for no persistence.
        jobs: Worker processes for the default local backend.
        progress: Optional per-job completion callback.
        engine: Simulation engine for every executed job; engines are
            numerically identical, so the store stays consistent across
            engine choices.
        backend: Execution backend instance or spelling (``"serial"``,
            ``"local"``, ``"tcp://HOST:PORT"``); never part of job identity.
        artifact_cache: Optional artifact-cache directory shared across
            jobs (see :class:`CampaignRunner`); operational only, results
            stay byte-identical.
    """
    if isinstance(store, (str, Path)):
        from .tools import open_store

        store = open_store(store)
    return CampaignRunner(
        spec,
        store=store,
        jobs=jobs,
        engine=engine,
        backend=backend,
        artifact_cache=artifact_cache,
    ).run(progress=progress)
