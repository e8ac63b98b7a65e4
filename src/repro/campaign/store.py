"""Persistent JSONL result stores keyed by job content hash.

One line per completed job:

``{"job": {...}, "key": "<sha256>", "provenance": {...}, "result": {...},
"schema": 1}``

Lines are canonical JSON (sorted keys, no whitespace), so a given job always
serialises to the same bytes regardless of worker count, completion order,
or execution backend — the property the resume and distributed tests pin
down.  Files are append-only while a campaign runs (crash-safe
resumability: every completed job survives), each append is a single
``O_APPEND`` write of one whole line (safe for concurrent writers on a
local filesystem), and :meth:`ResultStore.compact` rewrites files sorted by
key for deterministic whole-file bytes, published atomically through
:func:`repro._files.publish`.

Two rules keep stores mergeable across machines and code versions:

* An entry's *payload* is its ``job`` + ``result``; the ``provenance``
  field (package version + git hash, see
  :mod:`repro.campaign.provenance`) describes who wrote it and is never
  part of equality.  Re-putting an identical payload is idempotent even
  across versions; putting a *different* payload for an existing key is a
  determinism violation and fails loudly.
* A file whose final line is truncated (a writer died mid-append) is
  recovered by truncating back to the last complete line, with a warning;
  a corrupt line elsewhere is real corruption and raises.

:class:`ShardedResultStore` in :mod:`repro.campaign.shards` stores the same
records across one file per key prefix and shares all of this machinery.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from .._files import publish
from ..errors import CampaignError

# The serialisers live beside the result types (the JSON export uses them
# too); the store pairs them with their from-dict inverses below.
from ..sim.results import (  # noqa: F401 - re-exported
    SchemeRunResult,
    WorkloadComparison,
    comparison_to_dict,
    run_result_to_dict,
)
from .faults import FaultInjected, _maybe_torn_length
from .hashing import canonical_json
from .provenance import provenance_dict, warn_on_mixed_provenance
from .spec import SCHEMA_VERSION, JobSpec


def run_result_from_dict(data: Mapping[str, Any]) -> SchemeRunResult:
    """Rebuild a scheme run from its dictionary form."""
    try:
        payload = dict(data)
        payload["extra"] = dict(payload.get("extra", {}))
        return SchemeRunResult(**payload)
    except TypeError as exc:
        raise CampaignError(f"malformed run-result payload: {exc}") from exc


def comparison_from_dict(data: Mapping[str, Any]) -> WorkloadComparison:
    """Rebuild a workload comparison from its dictionary form."""
    try:
        return WorkloadComparison(
            workload=data["workload"],
            baseline=run_result_from_dict(data["baseline"]),
            alternatives=tuple(
                run_result_from_dict(r) for r in data["alternatives"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise CampaignError(f"malformed comparison payload: {exc}") from exc


def record_payload_line(record: Mapping[str, Any]) -> str:
    """Canonical bytes of the identity-bearing part of a store record.

    Two entries for the same key agree when their payload lines agree; the
    provenance field is deliberately excluded so stores written by different
    (behaviourally identical) code versions stay mergeable.
    """
    return canonical_json({"job": record.get("job"), "result": record.get("result")})


@contextmanager
def _file_lock(fd: int):
    """Exclusive advisory lock on ``fd`` (no-op where flock is unavailable).

    Serialises appends against the crash-repair truncation in
    :func:`load_jsonl_records`, so a reader can never mistake an in-flight
    append for a crashed writer's partial tail and truncate it away.
    """
    if fcntl is None:
        yield
        return
    fcntl.flock(fd, fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)


@contextmanager
def _locked(path: Path, flags: int):
    """Yield ``path`` opened (created if missing) and exclusively locked.

    A compaction may replace the file while this waits for the lock; the
    path is then reopened, so nothing is written to the unlinked file.
    """
    while True:
        fd = os.open(path, flags | os.O_CREAT, 0o644)
        try:
            with _file_lock(fd):
                try:
                    current = os.path.samestat(os.fstat(fd), os.stat(path))
                except FileNotFoundError:  # removed: an empty shard compacted away
                    current = False
                if current:
                    yield fd
                    return
        finally:
            os.close(fd)


def _append_line(path: Path, line: str) -> None:
    """Append one record line atomically enough for concurrent writers.

    A single ``write(2)`` of a whole line through an ``O_APPEND`` descriptor
    does not interleave with other writers on local filesystems, so several
    processes may share one store file and every line stays parseable.  The
    advisory lock additionally fences the append against a concurrent
    loader's crash repair and a compaction.
    """
    data = (line + "\n").encode("utf-8")
    with _locked(path, os.O_WRONLY | os.O_APPEND) as fd:
        torn = _maybe_torn_length(len(data))
        if torn is not None:
            # Injected torn write: persist a prefix of the record and crash
            # out of the append, exactly the disk state a writer killed
            # mid-write(2) leaves behind.  The loader's tail repair must
            # recover it.
            os.write(fd, data[:torn])
            os.fsync(fd)
            raise FaultInjected(
                f"injected torn append to {path} ({torn}/{len(data)} bytes)"
            )
        os.write(fd, data)
        os.fsync(fd)


def _write_lines(path: Path, lines: list[str]) -> None:
    """Atomically replace ``path`` with one record line per entry."""
    text = "".join(line + "\n" for line in lines)
    publish(path, lambda tmp: Path(tmp).write_text(text, encoding="utf-8"))


def _repair_file(path: Path, expected_raw: str, repaired: str) -> bool:
    """Rewrite ``path`` under the append lock, re-checking its content first.

    The loader decides to repair from an *unlocked* read, which may have
    raced a live appender; under the exclusive lock the file is re-read and
    the repair only applied if the content is still exactly what the
    decision was based on.  Returns ``True`` when the repair was applied —
    ``False`` means a writer got in between and the caller must re-load.
    """
    with _locked(path, os.O_RDWR) as fd:
        if path.read_bytes() != expected_raw.encode("utf-8"):
            return False
        data = repaired.encode("utf-8")
        os.write(fd, data)
        os.ftruncate(fd, len(data))
        os.fsync(fd)
        return True


def _compact_file(
    path: Path, lines: dict[str, str], remove_empty: bool = False
) -> dict[str, str]:
    """Publish ``path`` holding ``lines`` plus every entry on disk, by key.

    The file is re-read under the lock appends take and held until the new
    file is published, so what other writers appended since ``lines`` were
    loaded is kept.  With ``remove_empty``, a file left empty is removed.

    Returns:
        The merged entries, sorted by key.
    """
    with _locked(path, os.O_RDONLY):
        on_disk: dict[str, str] = {}
        raw = _read_text(path)
        torn_at = _parse_records(path, raw, on_disk)
        if torn_at is not None:  # a crashed append's tail: drop it, as a load does
            _warn_torn(path, raw, torn_at)
        merged = dict(sorted({**on_disk, **lines}.items()))
        if merged or not remove_empty:
            _write_lines(path, list(merged.values()))
        else:
            os.unlink(path)
        return merged


def load_jsonl_records(path: Path, lines: dict[str, str]) -> None:
    """Load one JSONL store file into ``lines`` (key -> canonical line).

    Recovers from a truncated final line — the signature of a writer killed
    mid-append — by truncating the file back to the last complete record
    (with a :class:`RuntimeWarning`).  Any other malformed line raises
    :class:`~repro.errors.CampaignError`: complete-but-corrupt records are
    data corruption, not a crash artifact, and must not be dropped silently.

    Repairs are fenced against live appenders: the rewrite happens under
    the same advisory lock :func:`_append_line` takes and re-checks the
    file content first, so an append caught mid-flight by the initial read
    triggers a re-load instead of a destructive truncation.
    """
    for _attempt in range(8):
        if _load_jsonl_once(path, lines):
            return
        # A concurrent writer landed between our read and the locked
        # repair; its append completed the tail, so re-read from scratch.
        lines.clear()
    raise CampaignError(
        f"{path}: could not obtain a stable view of the store "
        "(concurrent writers kept modifying it during crash repair)"
    )


def _load_jsonl_once(path: Path, lines: dict[str, str]) -> bool:
    """One load pass; ``False`` when a racing writer forces a re-read."""
    raw = _read_text(path)
    torn_at = _parse_records(path, raw, lines)
    if torn_at is not None:
        # Tail of a crashed append: drop it and repair the file so future
        # appends start on a fresh line.
        if not _repair_file(path, raw, raw[:torn_at]):
            return False
        _warn_torn(path, raw, torn_at)
    elif raw and not raw.endswith("\n"):
        # A final record that parsed but lost its newline: repair it so the
        # next append does not glue onto it.
        return _repair_file(path, raw, raw + "\n")
    return True


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # A whole-file read decodes in one call: ``exc.object`` is the file.
        line_number = exc.object.count(b"\n", 0, exc.start) + 1
        raise CampaignError(
            f"{path}:{line_number}: not UTF-8 text ({exc.reason})"
        ) from exc


def _warn_torn(path: Path, raw: str, torn_at: int) -> None:
    line_number = raw.count("\n", 0, torn_at) + 1
    warnings.warn(
        f"{path}: discarding truncated final record (line {line_number}); "
        "a writer likely died mid-append",
        RuntimeWarning,
        stacklevel=6,
    )


def _parse_records(path: Path, raw: str, lines: dict[str, str]) -> int | None:
    """Parse ``raw``'s records into ``lines`` (key -> canonical line).

    Returns the offset of a truncated final record (a crashed append's
    tail, left unparsed), or ``None``; any other malformed line raises
    :class:`~repro.errors.CampaignError`.
    """
    consumed = 0
    for line_number, line in enumerate(raw.splitlines(keepends=True), start=1):
        stripped = line.strip()
        if stripped:
            try:
                record = json.loads(stripped)
            # ValueError covers bad JSON and integers over the digit limit.
            except (ValueError, RecursionError) as exc:
                if not line.endswith("\n"):
                    return consumed
                raise CampaignError(
                    f"{path}:{line_number}: invalid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict) or "key" not in record:
                raise CampaignError(
                    f"{path}:{line_number}: record has no 'key' field"
                )
            if record.get("schema") != SCHEMA_VERSION:
                raise CampaignError(
                    f"{path}:{line_number}: schema "
                    f"{record.get('schema')!r} != {SCHEMA_VERSION} "
                    "(store written by an incompatible version)"
                )
            # Re-canonicalise so equality checks compare canonical bytes
            # even if the file was hand-edited or pretty-printed.
            lines[record["key"]] = canonical_json(record)
        consumed += len(line)
    return None


class BaseResultStore:
    """Shared query/mutation machinery of the JSONL-backed stores.

    Subclasses provide the on-disk layout: :meth:`_load` fills the in-memory
    ``key -> canonical line`` map and :meth:`_shard_path` names the file a
    key's line is appended to.
    """

    def __init__(self) -> None:
        self._lines: dict[str, str] = {}

    # -- layout hooks ----------------------------------------------------------

    @property
    def path(self) -> Path:
        """Location of the store (file or directory)."""
        raise NotImplementedError

    def _shard_path(self, key: str) -> Path:
        """File that holds (or will hold) the entry for ``key``."""
        raise NotImplementedError

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, key: str) -> bool:
        return key in self._lines

    def keys(self) -> Iterator[str]:
        """Iterate over stored job keys (insertion order)."""
        return iter(self._lines)

    def record(self, key: str) -> dict[str, Any] | None:
        """Full stored record for a key (``None`` when absent)."""
        line = self._lines.get(key)
        return None if line is None else json.loads(line)

    def entry_line(self, key: str) -> str | None:
        """The exact canonical JSONL line stored for a key."""
        return self._lines.get(key)

    def payload_line(self, key: str) -> str | None:
        """Canonical provenance-free payload bytes for a key."""
        record = self.record(key)
        return None if record is None else record_payload_line(record)

    def get(self, key: str) -> WorkloadComparison | None:
        """Deserialise the stored comparison for a key (``None`` when absent)."""
        record = self.record(key)
        return None if record is None else comparison_from_dict(record["result"])

    def job(self, key: str) -> JobSpec | None:
        """Deserialise the stored job spec for a key (``None`` when absent)."""
        record = self.record(key)
        return None if record is None else JobSpec.from_dict(record["job"])

    def provenances(self) -> list[Mapping[str, Any] | None]:
        """Provenance records of every entry (``None`` for legacy entries)."""
        return [json.loads(line).get("provenance") for line in self._lines.values()]

    def check_provenance(self) -> None:
        """Warn when entries from several code versions share this store."""
        warn_on_mixed_provenance(self.provenances(), f"store {self.path}")

    # -- mutation --------------------------------------------------------------

    def put(self, job: JobSpec, comparison: WorkloadComparison) -> bool:
        """Record one completed job.

        Returns ``True`` when the entry was written, ``False`` when an entry
        with an identical payload was already present (idempotent re-put,
        even when the existing entry was written by a different version).

        Raises:
            CampaignError: if the key is present with a *different* payload —
                a determinism violation or a hash collision, either of which
                must fail loudly rather than silently overwrite.
        """
        record = {
            "schema": SCHEMA_VERSION,
            "key": job.key,
            "job": job.to_dict(),
            "provenance": provenance_dict(),
            "result": comparison_to_dict(comparison),
        }
        line = canonical_json(record)
        if not self._admit_line(job.key, line):
            return False
        _append_line(self._shard_path(job.key), line)
        self._lines[job.key] = line
        return True

    def put_line(self, key: str, line: str) -> bool:
        """Record one entry from its exact canonical line (merge tool path).

        Preserves the source bytes — and therefore the source provenance —
        verbatim.  Same idempotence/conflict contract as :meth:`put`.
        """
        if not self._admit_line(key, line):
            return False
        _append_line(self._shard_path(key), line)
        self._lines[key] = line
        return True

    def _admit_line(self, key: str, line: str) -> bool:
        """Whether a new line for ``key`` must be appended (conflict-checked)."""
        existing = self._lines.get(key)
        if existing is None:
            return True
        if existing == line or record_payload_line(
            json.loads(existing)
        ) == record_payload_line(json.loads(line)):
            return False
        record = json.loads(line)
        job = record.get("job", {})
        raise CampaignError(
            f"store already holds a different result for key {key} "
            f"({job.get('workload')!r} @ {_point_label(job)}); "
            "refusing to overwrite"
        )


def _point_label(job_payload: Mapping[str, Any]) -> str:
    point = job_payload.get("point") or ()
    if not point:
        return "-"
    return ",".join(f"{name}={value}" for name, value in point)


class ResultStore(BaseResultStore):
    """Single-file JSONL store of completed campaign jobs.

    Args:
        path: Store file location; parent directories are created.  The file
            itself is created on the first :meth:`put`.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        if self._path.exists():
            load_jsonl_records(self._path, self._lines)

    @property
    def path(self) -> Path:
        """Location of the backing JSONL file."""
        return self._path

    @property
    def checkpoint_path(self) -> Path:
        """Where a coordinator serving this store checkpoints its queue."""
        return self._path.with_name(self._path.name + ".checkpoint.json")

    def _shard_path(self, key: str) -> Path:
        return self._path

    def compact(self) -> None:
        """Rewrite the file with entries sorted by key (deterministic bytes).

        Entries other writers appended since this store loaded are kept.
        """
        self._lines = _compact_file(self._path, self._lines)
