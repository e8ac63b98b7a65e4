"""Pluggable execution backends for :class:`repro.campaign.CampaignRunner`.

A backend answers exactly one question: *given these job payloads, stream
back their results*.  Everything else — store caching, resumability,
outcome ordering, reporting — lives in the runner, so backends compose with
every store layout and every spec.  Jobs are deterministic, which gives the
subsystem its core invariant: **the backend is never part of job identity**
(like the engine choice), and every backend produces byte-identical
store entries.

Three backends ship:

* :class:`SerialBackend` — in-process, in-order; zero serialisation
  overhead and the reference for byte-identity.
* :class:`ProcessPoolBackend` — ``multiprocessing`` fan-out across local
  cores (the historical ``jobs=N`` behaviour).
* :class:`TCPBackend` — a :class:`~repro.campaign.distributed.Coordinator`
  serving any number of :func:`~repro.campaign.distributed.run_worker`
  processes on any number of machines.

:func:`resolve_backend` maps the CLI/user spelling (``"serial"``,
``"local"``, ``"tcp://host:port"``) to an instance.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Iterator

from ..errors import CampaignError


def _initialize_pool_worker(telemetry_spec: str | None) -> None:
    """Initializer for local pool workers: telemetry.

    Workers inherit the parent's telemetry session by sink spec — or have a
    fork-inherited session explicitly cleared when the parent's sink is
    process-local (``telemetry_spec is None``), so renderers never draw
    from two processes.
    """
    from ..telemetry import enable_telemetry_for_process

    enable_telemetry_for_process(telemetry_spec, worker=f"pool-{os.getpid()}")


class ExecutionBackend:
    """How a campaign's pending jobs get executed.

    :meth:`execute` streams ``(key, comparison dict, elapsed seconds)``
    tuples back to the runner in completion order.
    """

    #: Short name used in reports (``local``, ``serial``, ``tcp``).
    name = "backend"

    @property
    def workers(self) -> int:
        """Worker parallelism this backend provided (1 for serial)."""
        return 1

    def execute(
        self, payloads: list[dict[str, Any]]
    ) -> Iterator[tuple[str, dict[str, Any], float]]:
        """Execute every payload, yielding results in completion order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources held for the run (idempotent; no-op here).

        The runner calls this when a campaign finishes even if nothing was
        pending — a fully-cached run must still shut a TCP coordinator
        down so its workers stop polling and its port is freed.
        """

    def describe(self) -> str:
        """Human-readable label for progress output."""
        return self.name


class SerialBackend(ExecutionBackend):
    """Execute jobs one after another in this process."""

    name = "serial"

    def execute(
        self, payloads: list[dict[str, Any]]
    ) -> Iterator[tuple[str, dict[str, Any], float]]:
        from .execution import execute_payload

        for payload in payloads:
            yield execute_payload(payload)


class ProcessPoolBackend(ExecutionBackend):
    """Fan jobs out over a local ``multiprocessing`` pool."""

    name = "local"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise CampaignError("jobs must be >= 1")
        self._jobs = jobs

    @property
    def workers(self) -> int:
        return self._jobs

    def execute(
        self, payloads: list[dict[str, Any]]
    ) -> Iterator[tuple[str, dict[str, Any], float]]:
        if self._jobs == 1 or len(payloads) == 1:
            yield from SerialBackend().execute(payloads)
            return
        from ..telemetry import current_spec
        from .execution import execute_payload

        # Fork keeps worker start-up cheap where available (Linux/macOS);
        # elsewhere fall back to the platform default start method.  Workers
        # inherit the active telemetry session through the initializer.
        # The stdlib warnings registry is per process, so a parallel
        # campaign warns once per worker at most, not per job.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        with context.Pool(
            processes=min(self._jobs, len(payloads)),
            initializer=_initialize_pool_worker,
            initargs=(current_spec(),),
        ) as pool:
            yield from pool.imap_unordered(execute_payload, payloads)

    def describe(self) -> str:
        return f"local[{self._jobs}]"


class TCPBackend(ExecutionBackend):
    """Serve jobs to remote pull-based workers from an in-process coordinator.

    Args:
        address: ``tcp://host:port`` to listen on (port 0 = ephemeral; see
            :attr:`address` for the resolved value).
        lease_timeout_s: Worker-death detection window; an unheartbeated
            job is requeued after this long.
        max_attempts: Hand-outs per job before the campaign fails.
        idle_timeout_s: Fail the run when no job completes for this long
            (``None`` = wait forever for workers).
        auth_key: Shared HMAC frame key (default: the ``REPRO_AUTH_KEY``
            environment variable; auth off when neither is set).  Purely
            operational — never part of job identity or store bytes.
        quarantine: Park jobs that exhaust ``max_attempts`` on a poison
            list instead of failing the whole campaign.
        checkpoint: Path the coordinator checkpoints its queue/lease state
            to (see :meth:`resume_from_checkpoint`); ``None`` disables.
        frame_timeout_s: Per-connection send/recv timeout.

    The coordinator binds at construction so its address can be given to
    workers before :meth:`execute` starts serving jobs.
    """

    name = "tcp"

    def __init__(
        self,
        address: str = "tcp://127.0.0.1:0",
        lease_timeout_s: float = 30.0,
        max_attempts: int = 3,
        idle_timeout_s: float | None = None,
        auth_key: Any = None,
        quarantine: bool = False,
        checkpoint: Any = None,
        frame_timeout_s: float = 10.0,
    ) -> None:
        from .distributed import Coordinator

        self._coordinator = Coordinator(
            address,
            lease_timeout_s=lease_timeout_s,
            max_attempts=max_attempts,
            auth_key=auth_key,
            quarantine=quarantine,
            checkpoint=checkpoint,
            frame_timeout_s=frame_timeout_s,
        )
        self._idle_timeout = idle_timeout_s

    def resume_from_checkpoint(self, store: Any | None = None) -> int:
        """Resubmit unfinished work from the coordinator's checkpoint file.

        Diffs the checkpoint against ``store`` (refreshed first when it
        supports ``refresh()``) so only jobs without a durable store entry
        are requeued; returns how many were resubmitted.
        """
        return self._coordinator.resume_from_checkpoint(store)

    @property
    def address(self) -> str:
        """Resolved coordinator address for workers to connect to."""
        return self._coordinator.address

    @property
    def coordinator(self):
        """The underlying :class:`~repro.campaign.distributed.Coordinator`."""
        return self._coordinator

    @property
    def workers(self) -> int:
        return max(1, len(self._coordinator.workers_seen))

    def execute(
        self, payloads: list[dict[str, Any]]
    ) -> Iterator[tuple[str, dict[str, Any], float]]:
        from .spec import JobSpec

        keyed = {
            JobSpec.from_dict(payload["job"]).key: payload for payload in payloads
        }
        self._coordinator.submit(keyed)
        try:
            for key, result, elapsed in self._coordinator.results(
                timeout_s=self._idle_timeout
            ):
                # A resumed checkpoint may carry jobs outside this run's
                # payload set; let workers finish them, but only stream
                # what this run asked for back to its runner.
                if key in keyed:
                    yield key, result, elapsed
        finally:
            self._coordinator.close()

    def close(self) -> None:
        self._coordinator.close()

    def describe(self) -> str:
        return self.address


def resolve_backend(
    backend: "str | ExecutionBackend | None", jobs: int = 1
) -> ExecutionBackend:
    """Map a backend spelling to an instance.

    ``None`` keeps the historical behaviour: serial for ``jobs == 1``, a
    local process pool otherwise.  Strings accept ``"serial"``, ``"local"``
    (honouring ``jobs``), and ``"tcp://HOST:PORT"``.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        return SerialBackend() if jobs == 1 else ProcessPoolBackend(jobs)
    if backend == "serial":
        return SerialBackend()
    if backend == "local":
        return SerialBackend() if jobs == 1 else ProcessPoolBackend(jobs)
    if backend.startswith("tcp://"):
        return TCPBackend(backend)
    raise CampaignError(
        f"unknown backend {backend!r}; choose 'serial', 'local' or tcp://HOST:PORT"
    )
