"""Structured telemetry: counters, gauges and timed spans over pluggable sinks.

The instrumentation layer every execution tier reports through.  Design
constraints, in order:

1. **Zero overhead when disabled.**  Telemetry is off by default; every
   emit helper starts with one :class:`~contextvars.ContextVar` load and a
   ``None`` check, and :func:`span` returns a shared no-op object without
   allocating.  Nothing is formatted, timestamped or serialised unless a
   session is active.  Instrumentation sits at *phase* granularity (one
   span per kernel pass, one event per job, one counter per protocol
   frame) — never inside per-access loops — so even an enabled session
   costs a vanishing fraction of a replay.
2. **Never part of results.**  Telemetry observes; it must not influence
   job identity, store bytes or the bit-identical engine guarantee.  The
   layer therefore exposes no hook by which simulation code could *read*
   telemetry state, and the zero-interference tests in
   ``tests/telemetry/test_zero_interference.py`` hold stores byte-identical
   with telemetry on and off.
3. **Scope-local, process-inheritable.**  :func:`telemetry` activates a
   session for a ``with`` scope through a contextvar, so nested and
   concurrent scopes compose.  Campaign worker processes inherit the
   session through :func:`current_spec` + :func:`enable_telemetry_for_process`
   (the pool-initializer pair), and coordinator handler threads re-enter it
   through :func:`activate`.

Events are flat JSON objects, one per line (JSONL), with reserved keys:

========== =================================================================
key        meaning
========== =================================================================
``ts``     Unix timestamp (``time.time()``) at emission.
``kind``   ``"event"`` | ``"counter"`` | ``"gauge"`` | ``"span"``.
``name``   Dotted event name (``kernel.pass1``, ``coordinator.lease_grant``).
``value``  Number: the increment of a counter, the reading of a gauge.
``duration_s`` Span wall time in seconds (spans only).
``pid``    Emitting process id.
========== =================================================================

plus any keyword fields the emitting site attached (JSON scalars) and the
session's static context fields (e.g. ``worker="host-1234"``).  The file
sink appends each event as one ``O_APPEND`` write of one line, so any
number of worker processes can share a telemetry file the same way they
share a sharded result store.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterator

from ..errors import TelemetryError

#: Reserved top-level keys a site's keyword fields may not collide with.
RESERVED_KEYS = frozenset({"ts", "kind", "name", "value", "duration_s", "pid"})


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class Sink:
    """Where emitted events go.  Subclasses override :meth:`emit`.

    Attributes:
        spec: A serialisable description of this sink that rebuilds an
            equivalent sink in another process (``None`` when the sink is
            process-local, e.g. in-memory buffers or renderers).
    """

    spec: str | None = None

    def emit(self, event: dict[str, Any]) -> None:
        """Consume one event dictionary (already fully populated)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (idempotent; no-op by default)."""


class NullSink(Sink):
    """Discard every event (the conceptual default when telemetry is off)."""

    def emit(self, event: dict[str, Any]) -> None:
        pass


class MemorySink(Sink):
    """Buffer events in a list — the test and in-process aggregation sink."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: dict[str, Any]) -> None:
        self.events.append(event)


class FileSink(Sink):
    """Append events to a JSONL file, one atomic ``O_APPEND`` write per line.

    Safe for concurrent writers (threads via an internal lock, processes
    via ``O_APPEND`` whole-line writes), exactly like the sharded result
    store's appends — a campaign's pool workers and its runner share one
    telemetry file without interleaving partial lines.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self.spec = str(self._path)
        self._lock = threading.Lock()
        self._fd = os.open(
            self._path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )

    @property
    def path(self) -> Path:
        """The JSONL file this sink appends to."""
        return self._path

    def emit(self, event: dict[str, Any]) -> None:
        line = json.dumps(event, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            if self._fd >= 0:
                os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        with self._lock:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1


class StderrSink(Sink):
    """Write events as JSONL to stderr (ad-hoc debugging)."""

    spec = "stderr"

    def emit(self, event: dict[str, Any]) -> None:
        sys.stderr.write(json.dumps(event, separators=(",", ":"), default=str) + "\n")


class MultiSink(Sink):
    """Fan one event stream out to several sinks (file + live renderer).

    The inheritable :attr:`spec` is the first child's spec that has one, so
    worker processes rebuild the durable part (the file) and skip
    process-local children (renderers, memory buffers).
    """

    def __init__(self, sinks: list[Sink]) -> None:
        self._sinks = list(sinks)
        self.spec = next((s.spec for s in self._sinks if s.spec), None)

    def emit(self, event: dict[str, Any]) -> None:
        for sink in self._sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


def _open_sink(target: str | Path | Sink) -> Sink:
    """Map a sink spelling to an instance: Sink, ``"stderr"``, or a path."""
    if isinstance(target, Sink):
        return target
    if target == "stderr":
        return StderrSink()
    if isinstance(target, (str, Path)):
        return FileSink(target)
    raise TelemetryError(
        f"unknown telemetry target {target!r}; pass a path, 'stderr', or a Sink"
    )


# ---------------------------------------------------------------------------
# Session and scope
# ---------------------------------------------------------------------------


class TelemetrySession:
    """An active telemetry scope: a sink plus static context fields."""

    __slots__ = ("sink", "context")

    def __init__(self, sink: Sink, context: dict[str, Any]) -> None:
        self.sink = sink
        self.context = context

    def emit(
        self,
        kind: str,
        name: str,
        value: float | None = None,
        duration_s: float | None = None,
        fields: dict[str, Any] | None = None,
    ) -> None:
        """Assemble and emit one event through the sink."""
        event: dict[str, Any] = {
            "ts": time.time(),
            "kind": kind,
            "name": name,
            "pid": os.getpid(),
        }
        if value is not None:
            event["value"] = value
        if duration_s is not None:
            event["duration_s"] = duration_s
        if self.context:
            event.update(self.context)
        if fields:
            event.update(fields)
        self.sink.emit(event)

    def close(self) -> None:
        self.sink.close()


#: The active session for the current context (``None`` = telemetry off).
_active: ContextVar[TelemetrySession | None] = ContextVar(
    "repro_telemetry_session", default=None
)


def current() -> TelemetrySession | None:
    """The active session in this context, or ``None`` when disabled."""
    return _active.get()


def enabled() -> bool:
    """Whether telemetry is active in this context."""
    return _active.get() is not None


def current_spec() -> str | None:
    """The inheritable sink spec of the active session (for worker processes).

    ``None`` when telemetry is off or the active sink is process-local
    (memory buffers, renderers), in which case workers run uninstrumented.
    """
    session = _active.get()
    return session.sink.spec if session is not None else None


@contextmanager
def telemetry(target: str | Path | Sink, **context: Any):
    """Activate telemetry for the scope of the ``with`` block.

    Args:
        target: Where events go — a JSONL file path, ``"stderr"``, or any
            :class:`Sink` instance (e.g. a :class:`MemorySink` in tests or
            a :class:`MultiSink` composing a file with a live renderer).
        **context: Static fields merged into every event emitted in the
            scope (e.g. ``campaign="p-cell-sweep"``, ``worker="host-1"``).

    Yields:
        The :class:`TelemetrySession`, whose sink the caller may inspect.

    The sink is closed when the scope exits, and the previous session (or
    none) is restored — scopes nest and compose with concurrent contexts.
    """
    session = TelemetrySession(_open_sink(target), dict(context))
    token = _active.set(session)
    try:
        yield session
    finally:
        _active.reset(token)
        session.close()


@contextmanager
def activate(session: TelemetrySession | None):
    """Re-enter an existing session in another thread's context.

    Threads start with an empty context, so a session activated in the main
    thread is invisible to, say, a coordinator's connection-handler thread.
    Objects that outlive their creating scope capture :func:`current` at
    construction and wrap their thread bodies in ``activate(captured)``;
    passing ``None`` is a cheap no-op so call sites need no branching.
    The session's sink is *not* closed on exit — the owning scope does that.
    """
    if session is None:
        yield
        return
    token = _active.set(session)
    try:
        yield
    finally:
        _active.reset(token)


def enable_telemetry_for_process(
    spec: str | None, **context: Any
) -> TelemetrySession | None:
    """Enable (or explicitly disable) telemetry for the rest of this process.

    The worker-process half of session inheritance: pool initializers call
    it with the parent's :func:`current_spec`, so jobs dispatched to the
    worker emit into the same telemetry file.  A ``None`` spec *clears* any
    session a forked child inherited from its parent (process-local
    renderers must not run twice).
    """
    if spec is None:
        _active.set(None)
        return None
    session = TelemetrySession(_open_sink(spec), dict(context))
    _active.set(session)
    return session


# ---------------------------------------------------------------------------
# Emit helpers
# ---------------------------------------------------------------------------


def emit_event(name: str, **fields: Any) -> None:
    """Emit a point-in-time structured event (no value, no duration)."""
    session = _active.get()
    if session is not None:
        session.emit("event", name, fields=fields)


def emit_counter(name: str, value: float = 1, **fields: Any) -> None:
    """Emit a counter increment; aggregation sums ``value`` per name."""
    session = _active.get()
    if session is not None:
        session.emit("counter", name, value=value, fields=fields)


def emit_gauge(name: str, value: float, **fields: Any) -> None:
    """Emit a gauge reading; aggregation keeps the last/min/max per name."""
    session = _active.get()
    if session is not None:
        session.emit("gauge", name, value=value, fields=fields)


class Span:
    """A timed scope: measures always, emits only when a session is active.

    The measurement side is unconditional — two ``perf_counter`` calls —
    so call sites can *rely* on :attr:`duration_s` for their own reporting
    (``execute_payload`` returns it as the job elapsed) whether or not
    telemetry is on.  That is what lets one primitive replace the ad-hoc
    ``perf_counter`` pairs: the timing and the event are the same object.

    Usable as a context manager or via the explicit :meth:`start` /
    :meth:`finish` pair.
    """

    __slots__ = ("_session", "name", "fields", "_started", "duration_s")

    def __init__(
        self, session: TelemetrySession | None, name: str, fields: dict[str, Any]
    ) -> None:
        self._session = session
        self.name = name
        self.fields = fields
        self._started = 0.0
        self.duration_s = 0.0

    def add(self, **fields: Any) -> None:
        """Attach fields discovered mid-span (emitted at finish)."""
        self.fields.update(fields)

    def start(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def finish(self) -> None:
        self.duration_s = time.perf_counter() - self._started
        if self._session is not None:
            self._session.emit(
                "span", self.name, duration_s=self.duration_s, fields=self.fields
            )

    def __enter__(self) -> "Span":
        return self.start()

    def __exit__(self, *_exc_info) -> bool:
        self.finish()
        return False


def span(name: str, **fields: Any) -> Span:
    """Open a timed span named ``name`` with the given static fields.

    The span captures the active session at creation, so it emits correctly
    even if the scope is exited before the span finishes (and never emits
    when telemetry was off at creation — the common, zero-cost case aside
    from the two ``perf_counter`` reads).
    """
    return Span(_active.get(), name, fields)


# ---------------------------------------------------------------------------
# Reading events back
# ---------------------------------------------------------------------------


def read_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Iterate the events of a telemetry JSONL file, in file order.

    Blank lines are skipped and a truncated *final* line (a writer killed
    mid-append) is tolerated; a malformed line anywhere else raises
    :class:`TelemetryError`, since silent drops would skew aggregations.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise TelemetryError(f"cannot read telemetry file {path}: {exc}") from exc
    lines = raw.split(b"\n")
    # A file not ending in a newline has a (possibly truncated) tail entry.
    complete, tail = lines[:-1], lines[-1]
    for index, line in enumerate(complete):
        if not line.strip():
            continue
        try:
            event = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TelemetryError(
                f"malformed telemetry line {index + 1} in {path}: {exc}"
            ) from exc
        if isinstance(event, dict):
            yield event
    if tail.strip():
        try:
            event = json.loads(tail.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return  # truncated tail: the writer died mid-append
        if isinstance(event, dict):
            yield event
