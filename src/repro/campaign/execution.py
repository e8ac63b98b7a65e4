"""Process-agnostic job payloads: the unit every execution backend moves.

A payload is a plain dictionary — ``{"job": <JobSpec dict>}`` — that
serialises identically under pickling (process pools) and JSON framing (the
TCP protocol), so the same job produces the same bytes no matter which
backend carries it.  The optional ``artifact_cache`` directory rides along
*outside* the job spec: it selects where decoded traces are cached, never
what the job computes, so it is not part of the job identity or store key.
Unknown payload fields are ignored, so a payload from an older coordinator
or checkpoint (which may still carry ``"engine"`` or ``"kernel"`` fields)
executes unchanged.
"""

from __future__ import annotations

import os
from typing import Any

from ..telemetry import span
from ..workloads.artifacts import ARTIFACT_CACHE_ENV, ArtifactCache
from .spec import JobSpec


def payload_for(job: JobSpec, artifact_cache: str | None = None) -> dict[str, Any]:
    """Build the transportable payload for one job."""
    payload: dict[str, Any] = {"job": job.to_dict()}
    if artifact_cache is not None:
        payload["artifact_cache"] = str(artifact_cache)
    return payload


def _payload_artifact_cache(payload: dict[str, Any]) -> ArtifactCache | None:
    """Resolve the artifact cache a payload should use on this machine.

    The worker's own environment wins when set (``REPRO_ARTIFACT_CACHE``,
    including the disabling spellings): a remote worker knows its local
    disk better than the coordinator that built the payload.  Otherwise the
    payload's ``artifact_cache`` field — the coordinator's CLI knob — is
    used, and absent both, caching is off.
    """
    spec = os.environ.get(ARTIFACT_CACHE_ENV)
    if spec is None:
        spec = payload.get("artifact_cache")
    return ArtifactCache.resolve(spec)


def job_accesses(job: JobSpec) -> int:
    """Simulated accesses one job represents (baseline plus alternatives)."""
    return job.settings.num_accesses * (1 + len(job.alternatives))


def execute_payload(payload: dict[str, Any]) -> tuple[str, dict[str, Any], float]:
    """Execute one job from its payload dictionary.

    Returns ``(key, comparison dict, elapsed seconds)`` — everything a
    backend streams back to the runner.  Shared verbatim by the serial
    backend, the ``multiprocessing`` pool workers and the TCP workers, so
    all backends perform the identical computation.

    The elapsed seconds come from a ``job.execute`` telemetry span, which
    measures unconditionally: with telemetry enabled the same timing also
    lands in the event stream (annotated with the workload and sweep point),
    so there is exactly one clock per job.
    """
    from ..sim.experiment import compare_schemes
    from .faults import fault_point
    from .store import comparison_to_dict

    fault_point("worker.execute")
    job = JobSpec.from_dict(payload["job"])
    execute_span = span(
        "job.execute",
        workload=job.workload,
        point=job.point_label,
        accesses=job_accesses(job),
    )
    with execute_span:
        comparison = compare_schemes(
            job.workload,
            baseline=job.baseline,
            alternatives=job.alternatives,
            settings=job.settings,
            artifact_cache=_payload_artifact_cache(payload),
        )
    return job.key, comparison_to_dict(comparison), execute_span.duration_s
