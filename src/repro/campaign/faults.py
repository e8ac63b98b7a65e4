"""Deterministic fault injection for the distributed campaign tier.

Chaos testing a coordinator/worker system needs faults that are *seeded*
(the same plan replays the same faults), *scoped* (a test injecting frame
drops must not perturb an unrelated campaign in the same process), and
*free* when disabled (the production path pays one context-variable load
and a ``None`` check, exactly like telemetry).  This module provides all
three:

* :class:`FaultPlan` — a frozen, JSON-serialisable description of which
  faults to inject: frame drop/corrupt/duplicate/delay probabilities,
  heartbeat stalls, process kills at named sites, and torn store appends.
* :class:`FaultInjector` — the runtime: one seeded RNG plus per-site visit
  counters, consulted by the instrumented code paths
  (:func:`repro.campaign.distributed.request`, the heartbeat thread,
  :func:`repro.campaign.store._append_line`, and the named
  :func:`fault_point` sites inside the worker loop).
* :func:`inject_faults` — context-manager scoping, mirroring
  :func:`repro.telemetry.telemetry`; :func:`enable_faults_for_process`
  installs a process-wide injector in spawned workers from the
  ``REPRO_FAULT_PLAN`` environment variable (a JSON plan).

Faults are an operational knob like the backend or the artifact cache: they
select *how unreliably* a campaign executes, never what it computes, so
they are not part of job identity and a faulted campaign that converges
fills a store byte-identical to an unfaulted serial run — the property the
chaos suite pins down.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Iterator, Mapping

from ..errors import CampaignError

#: Environment variable carrying a JSON :class:`FaultPlan` into workers.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit status of a process killed by a ``kill_at`` fault, distinguishable
#: from real crashes in chaos-test assertions.
KILL_EXIT_CODE = 43


class FaultInjected(CampaignError):
    """An injected fault fired (dropped frame, torn write, ...).

    Deliberately a :class:`~repro.errors.CampaignError` subclass: injected
    faults must exercise exactly the error-handling paths real network and
    disk failures take, so production code never needs to know it exists.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the faults one injector should produce.

    Probabilities are per-opportunity (one frame exchange, one heartbeat
    renewal); ``kill_at`` and ``torn_write_at`` are exact 1-based ordinals
    so tests can place a fault deterministically ("kill this worker on its
    first job", "tear the second shard append").
    """

    seed: int = 0
    #: Probability a request frame is dropped before it is sent.
    drop_request_p: float = 0.0
    #: Probability the reply to a delivered request is discarded.
    drop_reply_p: float = 0.0
    #: Probability a request frame's bytes are corrupted on the wire.
    corrupt_p: float = 0.0
    #: Probability a (non-pull) request is sent twice.
    duplicate_p: float = 0.0
    #: Probability a request is delayed by ``delay_s`` before sending.
    delay_p: float = 0.0
    delay_s: float = 0.02
    #: Probability one heartbeat renewal is silently skipped.
    heartbeat_stall_p: float = 0.0
    #: site name -> 1-based visit numbers at which to kill the process.
    kill_at: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    #: 1-based store-append ordinals to tear (partial write + crash).
    torn_write_at: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "drop_request_p",
            "drop_reply_p",
            "corrupt_p",
            "duplicate_p",
            "delay_p",
            "heartbeat_stall_p",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise CampaignError(f"FaultPlan.{name} must be in [0, 1], got {value}")
        # ``time.sleep`` takes a finite, non-negative delay only.
        if not 0.0 <= self.delay_s < math.inf:
            raise CampaignError(
                f"FaultPlan.delay_s must be a finite number >= 0, got {self.delay_s}"
            )
        # Normalise the mapping/sequence fields so plans hash/compare and
        # JSON round-trips are exact.
        object.__setattr__(
            self,
            "kill_at",
            {str(k): tuple(int(n) for n in v) for k, v in dict(self.kill_at).items()},
        )
        object.__setattr__(
            self, "torn_write_at", tuple(int(n) for n in self.torn_write_at)
        )
        # Visit and append counters start at 1, so a smaller ordinal never fires.
        ordinals = {f"kill_at[{site!r}]": v for site, v in self.kill_at.items()}
        ordinals["torn_write_at"] = self.torn_write_at
        for name, values in ordinals.items():
            if any(n < 1 for n in values):
                raise CampaignError(
                    f"FaultPlan.{name} ordinals are 1-based, got {list(values)}"
                )

    def to_json(self) -> str:
        """Serialise the plan for the ``REPRO_FAULT_PLAN`` environment hop."""
        payload = asdict(self)
        payload["kill_at"] = {k: list(v) for k, v in self.kill_at.items()}
        payload["torn_write_at"] = list(self.torn_write_at)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        # ValueError covers bad JSON and integers over Python's digit limit.
        except (ValueError, RecursionError) as exc:
            raise CampaignError(f"malformed fault plan JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CampaignError("fault plan JSON must be an object")
        types = {f.name: _JSON_TYPES[f.type] for f in fields(cls)}
        for name, value in payload.items():
            # Unknown names are left to the constructor, which rejects them.
            expected, check = types.get(name, ("", lambda _: True))
            if not check(value):
                raise CampaignError(
                    f"malformed fault plan: {name} must be {expected}, got {value!r}"
                )
        try:
            return cls(
                **{
                    **payload,
                    "kill_at": {
                        k: tuple(v) for k, v in payload.get("kill_at", {}).items()
                    },
                    "torn_write_at": tuple(payload.get("torn_write_at", ())),
                }
            )
        except TypeError as exc:
            raise CampaignError(f"malformed fault plan: {exc}") from exc


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_ints(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


#: The JSON form of each annotation a :class:`FaultPlan` field carries:
#: ``(description, check)``.
_JSON_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "tuple[int, ...]": ("a list of integers", _is_ints),
    "Mapping[str, tuple[int, ...]]": (
        "an object of integer lists",
        lambda v: isinstance(v, dict) and all(map(_is_ints, v.values())),
    ),
}


class FaultInjector:
    """Runtime decision-maker for one :class:`FaultPlan`.

    Thread-safe: handler threads, heartbeat threads and the worker main
    loop may consult one injector concurrently.  Decisions draw from a
    single seeded RNG in consultation order, so a single-threaded test
    replays identically; ``kill_at``/``torn_write_at`` use per-site visit
    counters and are exact regardless of interleaving.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self._visits: dict[str, int] = {}
        self._appends = 0
        #: fault kind -> number of times it fired (test introspection).
        self.fired: dict[str, int] = {}

    def _record(self, kind: str) -> None:
        self.fired[kind] = self.fired.get(kind, 0) + 1

    def frame_fate(self, msg_type: str) -> str | None:
        """Decide one request's fate: ``None`` (deliver) or a fault kind.

        Returns one of ``"drop"``, ``"corrupt"``, ``"duplicate"``,
        ``"delay"``, ``"drop_reply"``.  Duplication is only offered to
        idempotent message types (everything but ``pull`` — duplicating a
        pull would grant a lease nobody services and force a requeue wait).
        """
        plan = self.plan
        with self._lock:
            roll = self._rng.random
            if plan.drop_request_p and roll() < plan.drop_request_p:
                self._record("drop")
                return "drop"
            if plan.corrupt_p and roll() < plan.corrupt_p:
                self._record("corrupt")
                return "corrupt"
            if (
                plan.duplicate_p
                and msg_type != "pull"
                and roll() < plan.duplicate_p
            ):
                self._record("duplicate")
                return "duplicate"
            if plan.delay_p and roll() < plan.delay_p:
                self._record("delay")
                return "delay"
            if plan.drop_reply_p and roll() < plan.drop_reply_p:
                self._record("drop_reply")
                return "drop_reply"
        return None

    def heartbeat_stalled(self) -> bool:
        """Whether to silently skip one heartbeat renewal."""
        plan = self.plan
        if not plan.heartbeat_stall_p:
            return False
        with self._lock:
            if self._rng.random() < plan.heartbeat_stall_p:
                self._record("heartbeat_stall")
                return True
        return False

    def should_kill(self, site: str) -> bool:
        """Whether this (1-based) visit to ``site`` is a scheduled kill."""
        ordinals = self.plan.kill_at.get(site)
        with self._lock:
            visit = self._visits.get(site, 0) + 1
            self._visits[site] = visit
        if ordinals and visit in ordinals:
            self._record("kill")
            return True
        return False

    def torn_length(self, nbytes: int) -> int | None:
        """Bytes to actually write for this append; ``None`` = write whole.

        Counts appends per process; an append whose 1-based ordinal is in
        ``torn_write_at`` is torn at a seeded offset strictly inside the
        payload (at least 1 byte written, at least 1 byte lost).
        """
        with self._lock:
            self._appends += 1
            if self._appends not in self.plan.torn_write_at or nbytes < 2:
                return None
            self._record("torn_write")
            return self._rng.randrange(1, nbytes)

    def corrupt_bytes(self, payload: bytes) -> bytes:
        """Return ``payload`` with one seeded byte flipped."""
        if not payload:
            return payload
        with self._lock:
            index = self._rng.randrange(len(payload))
            flip = 1 + self._rng.randrange(255)
        corrupted = bytearray(payload)
        corrupted[index] ^= flip
        return bytes(corrupted)


# ---------------------------------------------------------------------------
# Scoping (mirrors repro.telemetry: contextvar first, process-global second)
# ---------------------------------------------------------------------------

_active: ContextVar[FaultInjector | None] = ContextVar(
    "repro_fault_injector", default=None
)
_process_injector: FaultInjector | None = None


def current_injector() -> FaultInjector | None:
    """The injector governing this context (``None`` = no faults)."""
    injector = _active.get()
    if injector is not None:
        return injector
    return _process_injector


@contextmanager
def inject_faults(plan: FaultPlan | FaultInjector) -> Iterator[FaultInjector]:
    """Scope a fault injector to the calling context (and its children)."""
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    token = _active.set(injector)
    try:
        yield injector
    finally:
        _active.reset(token)


@contextmanager
def activate_faults(injector: FaultInjector | None) -> Iterator[None]:
    """Re-enter a captured injector in a freshly started thread.

    Threads begin with empty context, so long-lived helper threads (the
    heartbeat renewer) capture :func:`current_injector` at construction and
    re-enter it here — the same discipline
    :func:`repro.telemetry.activate` applies to telemetry sessions.
    ``None`` is a no-op, keeping call sites unconditional.
    """
    if injector is None:
        yield
        return
    token = _active.set(injector)
    try:
        yield
    finally:
        _active.reset(token)


def enable_faults_for_process(spec: str | None = None) -> FaultInjector | None:
    """Install (or clear) the process-wide injector from a JSON plan.

    Worker processes call this at start-up with ``spec`` defaulting to the
    ``REPRO_FAULT_PLAN`` environment variable, so chaos tests can arm
    spawned workers without threading a plan through every call signature.
    An absent/empty spec *clears* any inherited injector (fork safety).
    """
    global _process_injector
    if spec is None:
        spec = os.environ.get(FAULT_PLAN_ENV)
    if not spec:
        _process_injector = None
        return None
    _process_injector = FaultInjector(FaultPlan.from_json(spec))
    return _process_injector


def fault_point(site: str) -> None:
    """Named kill site: dies with :data:`KILL_EXIT_CODE` when scheduled.

    Sprinkled at the moments a worker is most dangerous to lose — after
    taking a lease, after computing but before reporting — so chaos tests
    can assert the lease/requeue machinery covers every window.  Free when
    no injector is active.
    """
    injector = current_injector()
    if injector is not None and injector.should_kill(site):
        os._exit(KILL_EXIT_CODE)


def _maybe_torn_length(nbytes: int) -> int | None:
    """Store-writer hook: how many bytes this append should really write."""
    injector = current_injector()
    if injector is None:
        return None
    return injector.torn_length(nbytes)
