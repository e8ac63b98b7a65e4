"""Multi-machine campaign execution: coordinator, workers, frame protocol.

The distributed backend splits a campaign across processes that need share
nothing but a TCP connection:

* The **coordinator** (:class:`Coordinator`) owns the pending-job queue.
  It answers *pull* requests — work-stealing scheduling: an idle worker
  pulls its next job the moment it is free, so fast machines naturally
  take more jobs — and collects streamed results.  Every handed-out job
  carries a **lease**; a worker renews its lease with heartbeats while it
  computes, and a lease that expires (worker death, network partition)
  puts the job back on the queue for someone else.  A job that fails
  repeatedly (``max_attempts``) fails the campaign loudly — or, with
  ``quarantine=True``, is parked on a poison list so the rest of the
  campaign still completes.
* A **worker** (:func:`run_worker`) is a dumb loop: pull, execute the
  process-agnostic payload via
  :func:`repro.campaign.execution.execute_payload`, stream the result
  back, repeat until the coordinator says it is done.  Workers hold no
  campaign state, so killing one at any moment loses nothing but the
  lease-timeout worth of wall time.  Transient coordinator outages are
  ridden out with seeded exponential backoff
  (``reconnect_timeout_s``) instead of killing the worker.

Jobs are deterministic, so it does not matter *which* worker runs one:
results stream back as the same dictionaries the in-process backends
produce, and store entries stay byte-identical to a serial run.  Duplicate
completions (a lease expired but the original worker finished anyway) are
detected by key and ignored — both copies are identical by construction —
and a *late* result whose job has already been requeued is rejected so the
retry attempt's result is the one that counts.

The wire format is deliberately primitive: one length-prefixed JSON frame
(4-byte big-endian length, UTF-8 JSON body) per message, one
request/response exchange per connection.  Messages:

========== ============================== ===================================
direction  message                        response
========== ============================== ===================================
worker →   ``{"type": "pull", ...}``      ``job`` | ``wait`` | ``shutdown``
worker →   ``{"type": "result", ...}``    ``ack``
worker →   ``{"type": "error", ...}``     ``ack``
worker →   ``{"type": "heartbeat", ...}`` ``ack``
========== ============================== ===================================

Frames are unauthenticated by default and must then only be exposed on
trusted networks (bind to localhost or a private interface).  With a
shared secret (``auth_key`` / ``REPRO_AUTH_KEY``, see :class:`FrameAuth`)
every frame body is prefixed with an HMAC-SHA256 tag, verified in constant
time; lease grants additionally carry a single-use nonce that result,
error and heartbeat frames must echo, so captured frames cannot be
replayed against a live lease.  Unsigned, truncated or garbage frames are
dropped without a reply — and without disturbing the campaign.

Crash recovery: give the coordinator a ``checkpoint`` path and it
periodically snapshots its job queue, attempts, poison list and lease
table (atomic ``mkstemp`` + ``rename``, the artifact-cache publish
discipline).  :meth:`Coordinator.resume_from_checkpoint` rebuilds pending
work by diffing the checkpoint against the *result store* — the durable
truth — so a killed-and-restarted coordinator finishes the campaign with
a byte-identical store.

All network and store paths consult :mod:`repro.campaign.faults`, so every
failure mode above can be injected deterministically in the chaos suite.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import queue
import random
import secrets
import socket
import struct
import tempfile
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..errors import CampaignError, FrameAuthError
from ..telemetry import activate, emit_counter, emit_event
from ..telemetry import current as telemetry_current
from .faults import (
    FAULT_PLAN_ENV,
    FaultInjected,
    activate_faults,
    current_injector,
    enable_faults_for_process,
    fault_point,
)
from .spec import SCHEMA_VERSION

#: Upper bound on one frame's body, to fail fast on garbage length prefixes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Environment variable carrying the shared frame-authentication key.
AUTH_KEY_ENV = "REPRO_AUTH_KEY"

#: ``kind`` marker of a coordinator checkpoint file.
CHECKPOINT_KIND = "coordinator-checkpoint"

_LENGTH = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Frame authentication
# ---------------------------------------------------------------------------


class FrameAuth:
    """HMAC-SHA256 signer/verifier for protocol frames.

    When enabled on both sides, every frame body becomes ``MAC || JSON``
    (the 4-byte length prefix covers both).  Verification is constant-time
    (:func:`hmac.compare_digest`); a frame that is unsigned, shorter than
    one MAC, or signed with a different key raises
    :class:`~repro.errors.FrameAuthError` at the receiver, which drops the
    connection without replying.  The key is an operational secret — like
    every other transport knob it never enters job identity or store bytes.
    """

    #: Length of the HMAC-SHA256 tag prefixed to each signed frame body.
    MAC_BYTES = 32

    def __init__(self, key: str | bytes) -> None:
        if isinstance(key, str):
            key = key.encode("utf-8")
        if not key:
            raise CampaignError("frame auth key must be non-empty")
        self._key = bytes(key)

    def sign(self, body: bytes) -> bytes:
        """The MAC to prefix to ``body``."""
        return hmac.new(self._key, body, hashlib.sha256).digest()

    def verify(self, mac: bytes, body: bytes) -> bool:
        """Constant-time check that ``mac`` signs ``body`` under this key."""
        return hmac.compare_digest(mac, self.sign(body))

    @classmethod
    def resolve(cls, key: "str | bytes | FrameAuth | None" = None) -> "FrameAuth | None":
        """Map a CLI/env spelling to an instance (``None`` = auth off).

        An explicit ``key`` wins; otherwise the ``REPRO_AUTH_KEY``
        environment variable is consulted, so coordinator and workers can
        share a secret without putting it on command lines.
        """
        if isinstance(key, FrameAuth):
            return key
        if key is None:
            key = os.environ.get(AUTH_KEY_ENV)
        if not key:
            return None
        return cls(key)


# ---------------------------------------------------------------------------
# Frame protocol
# ---------------------------------------------------------------------------


def send_frame(
    sock: socket.socket, message: dict[str, Any], auth: FrameAuth | None = None
) -> None:
    """Send one length-prefixed JSON frame (signed when ``auth`` is given)."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise CampaignError(f"frame of {len(body)} bytes exceeds the protocol limit")
    if auth is not None:
        body = auth.sign(body) + body
    emit_counter(
        "net.frame",
        _LENGTH.size + len(body),
        direction="send",
        msg=str(message.get("type", "?")),
    )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, size: int) -> bytes | None:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, auth: FrameAuth | None = None
) -> dict[str, Any] | None:
    """Receive one frame; ``None`` on a clean peer shutdown.

    With ``auth`` given, the leading MAC is stripped and verified before
    the body is even parsed; a missing or mismatched MAC raises
    :class:`~repro.errors.FrameAuthError` so callers can reject hostile
    peers without ever feeding their bytes to the JSON decoder.
    """
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise CampaignError(f"peer announced a {length}-byte frame; refusing")
    body = _recv_exact(sock, length)
    if body is None:
        raise CampaignError("connection closed mid-frame")
    if auth is not None:
        if len(body) < FrameAuth.MAC_BYTES:
            raise FrameAuthError(
                "frame shorter than one MAC: unsigned or truncated"
            )
        mac, body = body[: FrameAuth.MAC_BYTES], body[FrameAuth.MAC_BYTES :]
        if not auth.verify(mac, body):
            raise FrameAuthError("frame failed HMAC verification")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CampaignError(f"malformed protocol frame ({exc})") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise CampaignError("malformed protocol frame (no 'type')")
    emit_counter(
        "net.frame",
        _LENGTH.size + length,
        direction="recv",
        msg=str(message.get("type", "?")),
    )
    return message


def parse_address(address: str) -> tuple[str, int]:
    """Split ``tcp://host:port`` into its components."""
    if not address.startswith("tcp://"):
        raise CampaignError(
            f"unsupported backend address {address!r}; expected tcp://HOST:PORT"
        )
    host, separator, port_text = address[len("tcp://") :].rpartition(":")
    if not separator or not host:
        raise CampaignError(f"malformed backend address {address!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise CampaignError(f"malformed port in backend address {address!r}") from exc
    if not 0 <= port <= 65535:
        raise CampaignError(f"port out of range in backend address {address!r}")
    return host, port


def _exchange(
    address: str,
    message: dict[str, Any],
    timeout_s: float,
    auth: FrameAuth | None,
) -> dict[str, Any]:
    host, port = parse_address(address)
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        send_frame(sock, message, auth)
        reply = recv_frame(sock, auth)
    if reply is None:
        raise CampaignError(f"coordinator at {address} closed without replying")
    return reply


def _send_corrupted(
    address: str,
    message: dict[str, Any],
    timeout_s: float,
    auth: FrameAuth | None,
    injector,
) -> None:
    """Deliver ``message`` with one seeded byte flipped (fault injection)."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if auth is not None:
        body = auth.sign(body) + body
    body = injector.corrupt_bytes(body)
    try:
        host, port = parse_address(address)
        with socket.create_connection((host, port), timeout=timeout_s) as sock:
            sock.sendall(_LENGTH.pack(len(body)) + body)
            recv_frame(sock)
    except (OSError, CampaignError):
        pass


def request(
    address: str,
    message: dict[str, Any],
    timeout_s: float = 10.0,
    auth: FrameAuth | None = None,
) -> dict[str, Any]:
    """One request/response exchange with the coordinator at ``address``.

    When a fault injector is active in this context, the exchange may be
    dropped, corrupted, duplicated or delayed per the plan; injected
    losses surface as :class:`~repro.campaign.faults.FaultInjected` (a
    :class:`~repro.errors.CampaignError`), taking exactly the paths a real
    network failure would.
    """
    injector = current_injector()
    if injector is None:
        return _exchange(address, message, timeout_s, auth)
    fate = injector.frame_fate(str(message.get("type", "?")))
    if fate is None:
        return _exchange(address, message, timeout_s, auth)
    if fate == "drop":
        raise FaultInjected(
            f"injected drop of {message.get('type')!r} frame to {address}"
        )
    if fate == "delay":
        time.sleep(injector.plan.delay_s)
        return _exchange(address, message, timeout_s, auth)
    if fate == "corrupt":
        _send_corrupted(address, message, timeout_s, auth, injector)
        raise FaultInjected(
            f"injected corruption of {message.get('type')!r} frame to {address}"
        )
    if fate == "duplicate":
        reply = _exchange(address, message, timeout_s, auth)
        try:
            _exchange(address, message, timeout_s, auth)
        except (OSError, CampaignError):
            pass
        return reply
    # fate == "drop_reply": the frame arrives but the reply is lost.
    try:
        _exchange(address, message, timeout_s, auth)
    except (OSError, CampaignError):
        pass
    raise FaultInjected(
        f"injected reply drop for {message.get('type')!r} frame to {address}"
    )


# ---------------------------------------------------------------------------
# Coordinator checkpoints
# ---------------------------------------------------------------------------


def load_checkpoint(path: str | Path) -> dict[str, Any] | None:
    """Read a coordinator checkpoint; ``None`` when the file is absent.

    Raises :class:`~repro.errors.CampaignError` when the file exists but
    is not a checkpoint this version understands — resuming from garbage
    must fail loudly, never silently drop jobs.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CampaignError(f"unreadable coordinator checkpoint {path}: {exc}") from exc
    if (
        not isinstance(state, dict)
        or state.get("kind") != CHECKPOINT_KIND
        or state.get("schema") != SCHEMA_VERSION
        or not isinstance(state.get("payloads"), dict)
    ):
        raise CampaignError(
            f"{path} is not a coordinator checkpoint (or was written by an "
            "incompatible version)"
        )
    return state


def recover_pending_payloads(
    checkpoint: Mapping[str, Any], store: Any | None = None
) -> dict[str, dict[str, Any]]:
    """The checkpointed jobs that still need to run, diffed against ``store``.

    The checkpoint's own ``completed`` list is deliberately *not* trusted:
    a coordinator can crash after marking a job completed but before the
    store append became durable (a torn write), and re-running a completed
    job is idempotent while skipping an incomplete one loses data.  The
    result store — refreshed first, when it supports
    ``refresh()`` — is the durable truth; only quarantined (poisoned) jobs
    are excluded on the checkpoint's say-so, since they have no store entry
    by definition.
    """
    completed = set(checkpoint.get("poisoned") or {})
    if store is not None:
        refresh = getattr(store, "refresh", None)
        if callable(refresh):
            refresh()
        completed.update(store.keys())
    payloads = checkpoint.get("payloads") or {}
    return {key: payload for key, payload in payloads.items() if key not in completed}


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


@dataclass
class _Lease:
    key: str
    worker: str
    deadline: float
    #: ``time.monotonic()`` at hand-out, for coordinator-observed elapsed.
    granted: float
    #: Replay nonce the holder must echo (``None`` when auth is off).
    nonce: str | None = None


class Coordinator:
    """Serves the pending-job queue to pull-based workers over TCP.

    Args:
        address: ``tcp://host:port`` to listen on; port ``0`` binds an
            ephemeral port (read :attr:`address` for the resolved one).
        lease_timeout_s: How long a handed-out job may go without a
            heartbeat or result before it is requeued for another worker.
        max_attempts: How many times one job may be handed out before the
            campaign fails (guards against a job that kills every worker
            that touches it).
        auth_key: Shared HMAC key (string, bytes or :class:`FrameAuth`);
            defaults to the ``REPRO_AUTH_KEY`` environment variable, and
            auth is off when neither is set.
        quarantine: Park a job that exhausts ``max_attempts`` on the
            poison list (reported at the end of :meth:`results` and via
            ``repro-reap stats``) instead of failing the whole campaign.
        checkpoint: Path to periodically snapshot the queue/lease state to
            (atomic replace); ``None`` disables checkpointing.
        checkpoint_interval_s: Minimum seconds between checkpoint writes.
        frame_timeout_s: Per-connection send/recv timeout.

    The listening socket opens at construction, so workers may connect
    (and politely ``wait``) before :meth:`submit` provides any jobs.
    """

    def __init__(
        self,
        address: str = "tcp://127.0.0.1:0",
        lease_timeout_s: float = 30.0,
        max_attempts: int = 3,
        auth_key: "str | bytes | FrameAuth | None" = None,
        quarantine: bool = False,
        checkpoint: str | Path | None = None,
        checkpoint_interval_s: float = 2.0,
        frame_timeout_s: float = 10.0,
    ) -> None:
        if lease_timeout_s <= 0:
            raise CampaignError("lease_timeout_s must be positive")
        if max_attempts < 1:
            raise CampaignError("max_attempts must be >= 1")
        if frame_timeout_s <= 0:
            raise CampaignError("frame_timeout_s must be positive")
        host, port = parse_address(address)
        self._lease_timeout = lease_timeout_s
        self._max_attempts = max_attempts
        self._auth = FrameAuth.resolve(auth_key)
        self._quarantine = quarantine
        self._frame_timeout = frame_timeout_s
        self._checkpoint_path = Path(checkpoint) if checkpoint is not None else None
        if self._checkpoint_path is not None:
            self._checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        self._checkpoint_interval = checkpoint_interval_s
        self._checkpoint_lock = threading.Lock()
        self._checkpoint_dirty = False
        self._last_checkpoint = 0.0
        self._lock = threading.Lock()
        self._pending: deque[str] = deque()
        self._payloads: dict[str, dict[str, Any]] = {}
        self._leases: dict[int, _Lease] = {}
        self._leased_keys: dict[str, int] = {}
        self._attempts: dict[str, int] = {}
        self._completed: set[str] = set()
        self._poisoned: dict[str, str] = {}
        #: Submitted jobs whose fate is settled (completed or poisoned).
        self._resolved = 0
        self._expected = 0
        self._next_lease = 1
        self._requeues = 0
        self._workers_seen: set[str] = set()
        self._events: queue.Queue[tuple[str, Any]] = queue.Queue()
        # Connection-handler threads start with empty contexts, so capture
        # the creating scope's telemetry session and re-enter it in them.
        self._telemetry = telemetry_current()
        self._closed = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._host = host
        self._port = self._listener.getsockname()[1]
        self._thread = threading.Thread(
            target=self._serve, name="campaign-coordinator", daemon=True
        )
        self._thread.start()

    # -- public surface --------------------------------------------------------

    @property
    def address(self) -> str:
        """The resolved ``tcp://host:port`` workers should connect to."""
        return f"tcp://{self._host}:{self._port}"

    @property
    def workers_seen(self) -> set[str]:
        """Identifiers of every worker that has pulled so far."""
        with self._lock:
            return set(self._workers_seen)

    @property
    def requeues(self) -> int:
        """How many leases expired and were handed to another worker."""
        with self._lock:
            return self._requeues

    @property
    def poisoned(self) -> dict[str, str]:
        """Quarantined jobs: ``key -> last error`` (empty without faults)."""
        with self._lock:
            return dict(self._poisoned)

    def submit(self, payloads: dict[str, dict[str, Any]]) -> None:
        """Queue the given ``key -> payload`` jobs for pulling workers."""
        with self._lock:
            for key, payload in payloads.items():
                if key in self._payloads:
                    continue
                if key in self._completed:
                    if key in self._poisoned:
                        # Known-poisoned from a resumed checkpoint: account
                        # for it so results() reports the quarantine
                        # instead of silently never delivering the job.
                        self._payloads[key] = payload
                        self._expected += 1
                        self._resolved += 1
                        self._events.put(("poisoned", (key, self._poisoned[key])))
                    continue
                self._payloads[key] = payload
                self._pending.append(key)
                self._expected += 1
            self._checkpoint_dirty = True
        self._write_checkpoint(force=True)

    def resume_from_checkpoint(self, store: Any | None = None) -> int:
        """Restore unfinished work from this coordinator's checkpoint file.

        Diffs the checkpointed job queue against ``store`` (the durable
        truth — see :func:`recover_pending_payloads`), restores the
        attempt counters and poison list, and submits what remains.
        Returns the number of jobs resubmitted; ``0`` when no checkpoint
        exists yet.
        """
        if self._checkpoint_path is None:
            raise CampaignError("coordinator has no checkpoint path to resume from")
        state = load_checkpoint(self._checkpoint_path)
        if state is None:
            return 0
        pending = recover_pending_payloads(state, store)
        with self._lock:
            for key, reason in (state.get("poisoned") or {}).items():
                if key not in self._poisoned:
                    self._poisoned[key] = str(reason)
                    self._completed.add(key)
            for key, count in (state.get("attempts") or {}).items():
                if key in pending:
                    self._attempts[key] = max(self._attempts.get(key, 0), int(count))
        self.submit(pending)
        return len(pending)

    def results(
        self, timeout_s: float | None = None
    ) -> Iterator[tuple[str, dict[str, Any], float]]:
        """Yield ``(key, result, elapsed)`` as workers stream jobs back.

        Blocks until every submitted job has completed.  Raises
        :class:`~repro.errors.CampaignError` when a job exhausts its
        attempts (at the end of the stream when ``quarantine`` is on, so
        every healthy job is still delivered first), and — when
        ``timeout_s`` is given — when no job completes for that long (an
        idle timeout: no workers, dead network).
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        delivered = 0
        poisoned: list[tuple[str, str]] = []
        while True:
            with self._lock:
                if delivered + len(poisoned) >= self._expected:
                    break
            try:
                wait = (
                    1.0
                    if deadline is None
                    else max(0.0, min(1.0, deadline - time.monotonic()))
                )
                kind, value = self._events.get(timeout=wait)
            except queue.Empty:
                self._sweep_expired_leases()
                if deadline is not None and time.monotonic() >= deadline:
                    raise CampaignError(
                        f"distributed campaign timed out after {timeout_s}s "
                        f"({delivered}/{self._expected} jobs completed; "
                        f"workers seen: {sorted(self.workers_seen) or 'none'})"
                    )
                continue
            if kind == "failed":
                key, message = value
                raise CampaignError(
                    f"job {key[:12]}... failed on every attempt "
                    f"({self._max_attempts}); last error: {message}"
                )
            if deadline is not None:
                deadline = time.monotonic() + timeout_s
            if kind == "poisoned":
                poisoned.append(value)
                continue
            delivered += 1
            yield value
            self._write_checkpoint()
        if poisoned:
            summary = "; ".join(
                f"{key[:12]}... ({message})" for key, message in poisoned
            )
            raise CampaignError(
                f"{len(poisoned)} job(s) quarantined after {self._max_attempts} "
                f"failed attempts each: {summary}"
            )

    def close(self) -> None:
        """Stop serving; subsequent worker requests see a refused connection."""
        if self._closed.is_set():
            return
        self._write_checkpoint(force=True)
        self._closed.set()
        try:
            # Unblock accept() promptly with a self-connection.
            poke_host = "127.0.0.1" if self._host == "0.0.0.0" else self._host
            with socket.create_connection((poke_host, self._port), timeout=1.0):
                pass
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- checkpointing ---------------------------------------------------------

    def _write_checkpoint(self, force: bool = False) -> None:
        """Snapshot the queue/lease state to the checkpoint path.

        Throttled to ``checkpoint_interval_s`` unless ``force``; published
        with ``mkstemp`` + ``os.replace`` (the artifact-cache discipline),
        so readers only ever see a complete checkpoint.
        """
        path = self._checkpoint_path
        if path is None:
            return
        now = time.monotonic()
        with self._lock:
            if not force and (
                not self._checkpoint_dirty
                or now - self._last_checkpoint < self._checkpoint_interval
            ):
                return
            state = {
                "kind": CHECKPOINT_KIND,
                "schema": SCHEMA_VERSION,
                "payloads": dict(self._payloads),
                "attempts": dict(self._attempts),
                "completed": sorted(self._completed),
                "poisoned": dict(self._poisoned),
                "leases": [
                    {
                        "key": lease.key,
                        "worker": lease.worker,
                        "expires_in_s": max(0.0, lease.deadline - now),
                    }
                    for lease in self._leases.values()
                ],
            }
            self._checkpoint_dirty = False
            self._last_checkpoint = now
            pending_count = len(self._pending)
            lease_count = len(self._leases)
        with self._checkpoint_lock:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(state, handle, sort_keys=True, separators=(",", ":"))
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        emit_event(
            "coordinator.checkpoint",
            jobs=len(state["payloads"]),
            completed=len(state["completed"]),
            pending=pending_count,
            leases=lease_count,
        )

    # -- server internals ------------------------------------------------------

    def _serve(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return
            if self._closed.is_set():
                conn.close()
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            with activate(self._telemetry), conn:
                conn.settimeout(self._frame_timeout)
                try:
                    message = recv_frame(conn, self._auth)
                except FrameAuthError:
                    # Unsigned/forged/truncated frame: drop the connection
                    # without a reply.  Never fatal — a hostile peer must
                    # not be able to disturb the campaign.
                    emit_event("coordinator.auth_reject")
                    return
                except CampaignError:
                    emit_event("coordinator.frame_reject")
                    return
                if message is None:
                    return
                send_frame(conn, self._dispatch(message), self._auth)
        except (OSError, CampaignError):
            # A broken worker connection never takes the coordinator down;
            # the lease mechanism covers whatever the worker was holding.
            pass

    def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        kind = message.get("type")
        if kind == "pull":
            return self._handle_pull(str(message.get("worker", "?")))
        if kind == "result":
            return self._handle_result(message)
        if kind == "error":
            return self._handle_error(message)
        if kind == "heartbeat":
            return self._handle_heartbeat(message)
        return {"type": "error", "message": f"unknown message type {kind!r}"}

    def _sweep_expired_leases(self) -> None:
        now = time.monotonic()
        requeued: list[_Lease] = []
        with self._lock:
            expired = [
                lease_id
                for lease_id, lease in self._leases.items()
                if lease.deadline <= now
            ]
            for lease_id in expired:
                lease = self._leases.pop(lease_id)
                self._leased_keys.pop(lease.key, None)
                if lease.key in self._completed:
                    continue
                # The worker died (or lost its network): put the job back.
                self._requeues += 1
                self._pending.append(lease.key)
                requeued.append(lease)
            if expired:
                self._checkpoint_dirty = True
        for lease in requeued:
            emit_event(
                "coordinator.lease_expire",
                worker=lease.worker,
                key=lease.key,
                held_s=now - lease.granted,
            )
        self._write_checkpoint()

    def _poison(self, key: str, message: str) -> None:
        """Park an exhausted job (caller holds the lock)."""
        self._poisoned[key] = message
        self._events.put(("poisoned", (key, message)))
        emit_event(
            "job.poisoned",
            key=key,
            message=message,
            attempts=self._attempts.get(key, 0),
        )

    def _handle_pull(self, worker: str) -> dict[str, Any]:
        self._sweep_expired_leases()
        with self._lock:
            self._workers_seen.add(worker)
            while self._pending:
                key = self._pending.popleft()
                if key in self._completed or key in self._leased_keys:
                    continue
                attempts = self._attempts.get(key, 0) + 1
                if attempts > self._max_attempts:
                    self._completed.add(key)
                    self._resolved += 1
                    self._checkpoint_dirty = True
                    if self._quarantine:
                        self._poison(key, "lease expired on every attempt")
                    else:
                        self._events.put(
                            ("failed", (key, "lease expired on every attempt"))
                        )
                    continue
                self._attempts[key] = attempts
                lease_id = self._next_lease
                self._next_lease += 1
                now = time.monotonic()
                nonce = secrets.token_hex(16) if self._auth is not None else None
                self._leases[lease_id] = _Lease(
                    key=key,
                    worker=worker,
                    deadline=now + self._lease_timeout,
                    granted=now,
                    nonce=nonce,
                )
                self._leased_keys[key] = lease_id
                self._checkpoint_dirty = True
                emit_event(
                    "coordinator.lease_grant",
                    worker=worker,
                    key=key,
                    attempt=attempts,
                )
                reply = {
                    "type": "job",
                    "lease": lease_id,
                    "key": key,
                    "payload": self._payloads[key],
                    "heartbeat_s": self._lease_timeout / 4.0,
                }
                if nonce is not None:
                    reply["nonce"] = nonce
                return reply
            if self._expected > 0 and self._resolved >= self._expected:
                return {"type": "shutdown"}
            # Nothing to hand out right now: jobs not submitted yet, or all
            # leased to other workers (one may yet expire and requeue).
            return {"type": "wait", "delay_s": min(1.0, self._lease_timeout / 10.0)}

    def _nonce_ok(self, message: dict[str, Any], lease: _Lease | None) -> bool:
        """Whether the message may act on its (live) lease.

        Only meaningful with auth enabled: the lease nonce travelled inside
        a signed grant, so echoing it proves the sender *is* the worker the
        job was granted to — a captured result frame replayed later, or a
        forged frame guessing lease ids, is rejected without releasing the
        lease.
        """
        if self._auth is None or lease is None:
            return True
        return message.get("nonce") == lease.nonce

    def _release(self, message: dict[str, Any]) -> tuple[str | None, _Lease | None]:
        """Drop the message's lease; returns the key it covered (if known)
        and the lease itself (``None`` when it already expired)."""
        lease_id = message.get("lease")
        lease = self._leases.pop(lease_id, None)
        if lease is not None:
            self._leased_keys.pop(lease.key, None)
            return lease.key, lease
        return message.get("key"), None

    def _handle_result(self, message: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            live = self._leases.get(message.get("lease"))
            if not self._nonce_ok(message, live):
                return {"type": "ack", "accepted": False}
            held_lease = live is not None
            key, lease = self._release(message)
            if key is None or key in self._completed or key not in self._payloads:
                # Duplicate completion after a lease expiry, or garbage.
                return {"type": "ack", "accepted": False}
            if not held_lease and (key in self._leased_keys or key in self._pending):
                # Late result: the sender's lease expired and the job was
                # requeued (or re-leased).  The retry attempt owns the job
                # now — rejecting the stale copy (exactly once) keeps one
                # completion per attempt and no duplicate store entries.
                return {"type": "ack", "accepted": False}
            self._completed.add(key)
            self._resolved += 1
            self._checkpoint_dirty = True
            worker_elapsed = float(message.get("elapsed", 0.0))
            self._events.put(("result", (key, message["result"], worker_elapsed)))
        # Both clocks on one event: the worker-reported compute time and the
        # coordinator-observed lease time (their gap is dispatch overhead).
        emit_event(
            "coordinator.result",
            worker=str(message.get("worker", "?")),
            key=key,
            worker_elapsed_s=worker_elapsed,
            observed_elapsed_s=(
                time.monotonic() - lease.granted if lease is not None else 0.0
            ),
        )
        return {"type": "ack", "accepted": True}

    def _handle_error(self, message: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            live = self._leases.get(message.get("lease"))
            if not self._nonce_ok(message, live):
                return {"type": "ack", "accepted": False}
            held_lease = live is not None
            key, _lease = self._release(message)
            if key is None or key in self._completed or key not in self._payloads:
                return {"type": "ack", "accepted": False}
            if not held_lease and (key in self._leased_keys or key in self._pending):
                # Stale report: the sender's lease already expired and the
                # job was requeued (or handed to someone else).  Whoever
                # holds it now decides its fate; double-queueing it — or
                # worse, failing the campaign under someone else's feet —
                # would be wrong.
                return {"type": "ack", "accepted": False}
            attempts = self._attempts.get(key, 0)
            self._checkpoint_dirty = True
            if attempts >= self._max_attempts:
                self._completed.add(key)
                self._resolved += 1
                if self._quarantine:
                    self._poison(key, str(message.get("message", "?")))
                else:
                    self._events.put(
                        ("failed", (key, str(message.get("message", "?"))))
                    )
            else:
                self._pending.append(key)
        emit_event(
            "coordinator.error",
            worker=str(message.get("worker", "?")),
            key=key,
            message=str(message.get("message", "?")),
        )
        return {"type": "ack", "accepted": True}

    def _handle_heartbeat(self, message: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            lease = self._leases.get(message.get("lease"))
            if lease is None:
                # Expired and requeued: tell the worker its work is moot.
                return {"type": "ack", "known": False}
            if not self._nonce_ok(message, lease):
                # Forged renewal: ignore it without touching the deadline,
                # and without telling the forger whether the lease lives.
                return {"type": "ack", "known": False}
            lease.deadline = time.monotonic() + self._lease_timeout
        emit_event(
            "coordinator.lease_renew", worker=lease.worker, key=lease.key
        )
        return {"type": "ack", "known": True}


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


def default_worker_id() -> str:
    """Hostname+pid identifier reported with every pull."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat:
    """Renews one job lease in the background while the job computes.

    Renewal failures are *surfaced*, never fatal: any exception — a
    connection reset mid-renewal included — sets :attr:`trouble` (and
    :attr:`last_error`) for the main loop to observe and keeps the thread
    alive for the next interval, because the worker's reconnect logic owns
    recovery.  A coordinator reply of ``known: False`` sets
    :attr:`lease_lost` and stops renewing: the lease expired and the job
    was requeued, so the eventual (stale) result will be rejected.
    """

    def __init__(
        self,
        address: str,
        lease: int,
        interval_s: float,
        auth: FrameAuth | None = None,
        nonce: str | None = None,
        timeout_s: float = 10.0,
    ) -> None:
        self._address = address
        self._lease = lease
        self._auth = auth
        self._nonce = nonce
        self._timeout = timeout_s
        self._interval = max(0.05, interval_s)
        self._stop = threading.Event()
        #: Set while the latest renewal attempt failed; cleared on success.
        self.trouble = threading.Event()
        #: Set when the coordinator reported the lease expired.
        self.lease_lost = threading.Event()
        self.last_error: BaseException | None = None
        # Renewal frames should count against the worker's telemetry
        # session (and fault plan), so carry both into the thread's empty
        # context.
        self._telemetry = telemetry_current()
        self._injector = current_injector()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        with activate(self._telemetry), activate_faults(self._injector):
            while not self._stop.wait(self._interval):
                injector = current_injector()
                if injector is not None and injector.heartbeat_stalled():
                    continue
                message: dict[str, Any] = {"type": "heartbeat", "lease": self._lease}
                if self._nonce is not None:
                    message["nonce"] = self._nonce
                try:
                    ack = request(
                        self._address,
                        message,
                        timeout_s=self._timeout,
                        auth=self._auth,
                    )
                except Exception as exc:  # noqa: BLE001 - surfaced, never fatal
                    # Transient coordinator trouble: the lease may expire
                    # and the job may be re-run elsewhere — correct either
                    # way, because stale completions are rejected by key.
                    self.last_error = exc
                    self.trouble.set()
                    continue
                if ack.get("type") == "ack" and not ack.get("known", True):
                    self.lease_lost.set()
                    return
                self.trouble.clear()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class _Reconnector:
    """Seeded exponential backoff over one continuous coordinator outage.

    ``backoff()`` sleeps and returns ``True`` while the outage is younger
    than ``budget_s``; ``False`` means give up (for a worker: the campaign
    has moved on without us).  Delays double from ``base_s`` up to
    ``max_s`` with multiplicative jitter from a seeded RNG (default seed:
    a hash of the worker id, so two workers on one host never thunder in
    lockstep yet each replays deterministically).  ``reset()`` on any
    successful exchange re-arms the budget.
    """

    def __init__(
        self,
        worker: str,
        budget_s: float,
        base_s: float = 0.1,
        max_s: float = 2.0,
        seed: int | None = None,
    ) -> None:
        self._worker = worker
        self._budget = budget_s
        self._base = base_s
        self._max = max_s
        self._rng = random.Random(
            zlib.crc32(worker.encode("utf-8")) if seed is None else seed
        )
        self._delay = base_s
        self._outage_started: float | None = None
        self._attempt = 0

    def reset(self) -> None:
        self._outage_started = None
        self._delay = self._base
        self._attempt = 0

    def backoff(self, exc: BaseException) -> bool:
        now = time.monotonic()
        if self._outage_started is None:
            self._outage_started = now
        remaining = self._budget - (now - self._outage_started)
        if remaining <= 0:
            return False
        self._attempt += 1
        delay = min(self._delay, self._max) * (0.5 + self._rng.random())
        delay = min(delay, remaining)
        self._delay = min(self._delay * 2.0, self._max)
        emit_event(
            "worker.reconnect",
            worker=self._worker,
            attempt=self._attempt,
            delay_s=delay,
            error=f"{type(exc).__name__}: {exc}",
        )
        time.sleep(delay)
        return True


def run_worker(
    address: str,
    worker_id: str | None = None,
    max_jobs: int | None = None,
    connect_retry_s: float = 30.0,
    poll_interval_s: float = 0.2,
    reconnect_timeout_s: float = 5.0,
    backoff_base_s: float = 0.1,
    backoff_max_s: float = 2.0,
    backoff_seed: int | None = None,
    frame_timeout_s: float = 10.0,
    auth_key: "str | bytes | FrameAuth | None" = None,
) -> int:
    """Pull-and-execute loop against the coordinator at ``address``.

    Runs until the coordinator reports the campaign complete (or stays
    unreachable for ``reconnect_timeout_s`` after this worker has spoken
    to it at least once — the coordinator staying gone *is* the shutdown
    signal for stragglers).  Returns the number of jobs executed.

    Args:
        address: ``tcp://host:port`` of the coordinator.
        worker_id: Identifier reported with every pull (default
            ``hostname-pid``).
        max_jobs: Stop after this many jobs (``None`` = unlimited); the
            distributed tests use it to model bounded workers.
        connect_retry_s: How long to keep retrying the *first* contact, so
            workers may be started before the coordinator.
        poll_interval_s: Sleep between first-contact retries/idle polls.
        reconnect_timeout_s: How long one continuous coordinator outage
            may last (after first contact) before the worker gives up and
            exits cleanly; transient hiccups inside the budget are ridden
            out with exponential backoff instead of killing the worker.
        backoff_base_s: First reconnect delay; doubles per retry.
        backoff_max_s: Reconnect delay ceiling.
        backoff_seed: Jitter seed (default: derived from the worker id).
        frame_timeout_s: Per-exchange connect/send/recv timeout.
        auth_key: Shared HMAC frame key (default: ``REPRO_AUTH_KEY``).
    """
    # Spawned worker processes inherit their chaos plan (if any) through
    # the environment, mirroring the telemetry/artifact-cache env hooks.
    if os.environ.get(FAULT_PLAN_ENV):
        enable_faults_for_process()

    return _run_worker_loop(
        address,
        worker_id or default_worker_id(),
        max_jobs,
        connect_retry_s,
        poll_interval_s,
        reconnect_timeout_s,
        backoff_base_s,
        backoff_max_s,
        backoff_seed,
        frame_timeout_s,
        FrameAuth.resolve(auth_key),
    )


def _deliver(
    address: str,
    message: dict[str, Any],
    outage: _Reconnector,
    timeout_s: float,
    auth: FrameAuth | None,
) -> dict[str, Any] | None:
    """Send one report frame, retrying through coordinator outages.

    Returns the ack, or ``None`` when the outage budget ran out (the
    campaign has moved on without us).  Retrying a report that *did*
    arrive (its ack was lost) is safe: completions are idempotent and the
    duplicate is acknowledged ``accepted: False``.
    """
    while True:
        try:
            reply = request(address, message, timeout_s=timeout_s, auth=auth)
        except (OSError, CampaignError) as exc:
            if outage.backoff(exc):
                continue
            return None
        outage.reset()
        return reply


def _run_worker_loop(
    address: str,
    worker: str,
    max_jobs: int | None,
    connect_retry_s: float,
    poll_interval_s: float,
    reconnect_timeout_s: float,
    backoff_base_s: float,
    backoff_max_s: float,
    backoff_seed: int | None,
    frame_timeout_s: float,
    auth: FrameAuth | None,
) -> int:
    executed = 0
    contacted = False
    first_deadline = time.monotonic() + connect_retry_s
    outage = _Reconnector(
        worker, reconnect_timeout_s, backoff_base_s, backoff_max_s, backoff_seed
    )
    while True:
        try:
            reply = request(
                address,
                {"type": "pull", "worker": worker},
                timeout_s=frame_timeout_s,
                auth=auth,
            )
        except (OSError, CampaignError) as exc:
            if not contacted:
                if time.monotonic() >= first_deadline:
                    raise CampaignError(
                        f"worker {worker} could not reach coordinator at "
                        f"{address} within {connect_retry_s}s: {exc}"
                    ) from exc
                time.sleep(poll_interval_s)
                continue
            # Coordinator unreachable mid-campaign: back off and retry
            # until the outage budget runs out (restart recovery window),
            # then exit cleanly — the campaign finished or moved on.
            if outage.backoff(exc):
                continue
            return executed
        contacted = True
        outage.reset()
        kind = reply.get("type")
        if kind == "shutdown":
            return executed
        if kind == "wait":
            time.sleep(float(reply.get("delay_s", poll_interval_s)))
            continue
        if kind != "job":
            raise CampaignError(f"unexpected coordinator reply {kind!r}")
        lease = reply["lease"]
        nonce = reply.get("nonce")
        fault_point("worker.after_pull")
        heartbeat = _Heartbeat(
            address,
            lease,
            float(reply.get("heartbeat_s", 5.0)),
            auth=auth,
            nonce=nonce,
            timeout_s=frame_timeout_s,
        )
        try:
            from .execution import execute_payload

            try:
                key, result, elapsed = execute_payload(reply["payload"])
            except Exception as exc:  # noqa: BLE001 - reported to coordinator
                error_frame: dict[str, Any] = {
                    "type": "error",
                    "lease": lease,
                    "key": reply.get("key"),
                    "worker": worker,
                    "message": f"{type(exc).__name__}: {exc}",
                }
                if nonce is not None:
                    error_frame["nonce"] = nonce
                if _deliver(address, error_frame, outage, frame_timeout_s, auth) is None:
                    return executed
                continue
        finally:
            heartbeat.stop()
        fault_point("worker.before_result")
        result_frame: dict[str, Any] = {
            "type": "result",
            "lease": lease,
            "key": key,
            "worker": worker,
            "result": result,
            "elapsed": elapsed,
        }
        if nonce is not None:
            result_frame["nonce"] = nonce
        if _deliver(address, result_frame, outage, frame_timeout_s, auth) is None:
            # Coordinator gone for the whole budget: our lease expired,
            # someone else completed the job, the campaign moved on.
            return executed
        executed += 1
        if max_jobs is not None and executed >= max_jobs:
            return executed


def run_worker_pool(address: str, processes: int, **worker_kwargs: Any) -> list[int]:
    """Run ``processes`` workers against one coordinator from this machine.

    A convenience for multi-core worker hosts (and the CLI's ``worker
    --jobs N``): each worker is an independent OS process running
    :func:`run_worker`, so one of them dying never takes down the others.
    Returns the per-worker executed-job counts.
    """
    import multiprocessing

    from ..telemetry import current_spec

    if processes < 1:
        raise CampaignError("worker pool needs at least one process")
    if processes == 1:
        return [run_worker(address, **worker_kwargs)]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    with context.Pool(
        processes=processes,
        initializer=_initialize_worker_process,
        initargs=(current_spec(),),
    ) as pool:
        async_results = [
            pool.apply_async(run_worker, (address,), worker_kwargs)
            for _ in range(processes)
        ]
        return [result.get() for result in async_results]


def _initialize_worker_process(telemetry_spec: str | None) -> None:
    """Worker-pool initializer: inherit (or clear) the telemetry session."""
    from ..telemetry import enable_telemetry_for_process

    enable_telemetry_for_process(telemetry_spec, worker=default_worker_id())
