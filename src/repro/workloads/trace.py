"""Memory-access trace containers and file I/O.

Two trace granularities are used in the reproduction:

* **CPU-level traces** (instruction fetches, loads, stores) drive the full
  two-level hierarchy of :class:`repro.cache.CacheHierarchy`, mirroring the
  paper's gem5 setup.
* **L2-level traces** (reads and write-backs as seen by the shared L2) drive
  a protected cache directly; the synthetic SPEC profiles generate at this
  level because the phenomenon under study — concealed-read accumulation —
  is entirely determined by the L2 access sequence.

A :class:`Trace` is backed either by :class:`TraceRecord` objects or by a
pair of NumPy columns (:meth:`Trace.from_columns`: int8 indices into
:data:`KIND_ORDER` plus int64 addresses).  The engines only read the
columns (:meth:`Trace.decoded`), so a column-backed trace — what the L2
generator and :func:`~repro.workloads.streams.read_trace` return — builds
its records lazily, only when ``records``, iteration or indexing asks.

Traces can be saved to and loaded from a simple text format (one record per
line: ``<kind> <hex address>``) so experiments are reproducible and
shareable without rerunning the generators.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..errors import TraceError

#: Largest trace address: addresses decode to int64 columns.
_MAX_ADDRESS = int(np.iinfo(np.int64).max)


class AccessKind(str, enum.Enum):
    """Kind of one memory reference."""

    IFETCH = "I"
    LOAD = "L"
    STORE = "S"
    L2_READ = "R"
    L2_WRITE = "W"


#: Fixed kind order of the cached decode arrays (see :meth:`Trace.decoded`).
KIND_ORDER = (
    AccessKind.IFETCH,
    AccessKind.LOAD,
    AccessKind.STORE,
    AccessKind.L2_READ,
    AccessKind.L2_WRITE,
)

_KIND_INDEX = {kind: index for index, kind in enumerate(KIND_ORDER)}

#: Kind indices that count as writes (see :attr:`TraceRecord.is_write`).
_WRITE_INDICES = (_KIND_INDEX[AccessKind.STORE], _KIND_INDEX[AccessKind.L2_WRITE])


def _integer_column(values, what: str) -> np.ndarray:
    """``values`` as a one-dimensional integer array, or :class:`TraceError`."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise TraceError(f"{what} column must be one-dimensional")
    if array.size and array.dtype.kind not in "iu":
        raise TraceError(f"{what} column must hold integers, got {array.dtype}")
    return array


@dataclass(frozen=True)
class TraceRecord:
    """One memory reference.

    Attributes:
        kind: Reference kind (CPU-level or L2-level).
        address: Physical byte address.
    """

    kind: AccessKind
    address: int

    def __post_init__(self) -> None:
        if self.address < 0:
            raise TraceError("trace addresses must be non-negative")
        if self.address > _MAX_ADDRESS:
            raise TraceError("trace addresses must fit in a signed 64-bit integer")

    @property
    def is_write(self) -> bool:
        """``True`` for stores and L2 write-backs."""
        return self.kind in (AccessKind.STORE, AccessKind.L2_WRITE)


class Trace:
    """An ordered sequence of memory references with a name.

    A trace is backed either by a list of :class:`TraceRecord` objects (the
    constructor, :meth:`append`, :meth:`extend`, :meth:`load`) or by a pair
    of NumPy columns (:meth:`from_columns`, which the L2 generator and
    :func:`~repro.workloads.streams.read_trace` use).  A column-backed trace
    builds its records lazily, on the first access to :attr:`records`,
    iteration or indexing; the fast engines only ever call :meth:`decoded`,
    so they never pay for per-access objects.

    Mutate the trace through :meth:`append` / :meth:`extend` (not by touching
    ``records`` directly) so the read/write counters stay consistent.
    """

    def __init__(self, name: str, records: list[TraceRecord] | None = None) -> None:
        self.name = name
        self._records: list[TraceRecord] | None = [] if records is None else records
        self._write_count = sum(1 for r in self._records if r.is_write)
        self._version = 0
        self._decoded: tuple[tuple[int, int], np.ndarray, np.ndarray] | None = None
        self._content_hash: tuple[tuple[int, int], str] | None = None

    @classmethod
    def from_columns(cls, name: str, kinds, addresses) -> "Trace":
        """A trace backed by ``(kind index, address)`` columns.

        ``kinds`` index :data:`KIND_ORDER` and ``addresses`` are byte
        addresses, exactly as :meth:`decoded` returns them.  The columns are
        copied into read-only arrays that seed the :meth:`decoded` memo, so
        decoding the trace is free; :class:`TraceRecord` objects are built
        only if a caller asks for them.

        Raises:
            TraceError: if the columns are not one-dimensional integer
                arrays of equal length, a kind code is outside
                :data:`KIND_ORDER`, or an address is negative or does not fit
                in a signed 64-bit integer.
        """
        kind_column = _integer_column(kinds, "kind")
        address_column = _integer_column(addresses, "address")
        if len(kind_column) != len(address_column):
            raise TraceError(
                f"kind and address columns differ in length "
                f"({len(kind_column)} != {len(address_column)})"
            )
        if kind_column.size and (
            kind_column.min() < 0 or kind_column.max() >= len(KIND_ORDER)
        ):
            raise TraceError(
                f"kind codes must index KIND_ORDER (0..{len(KIND_ORDER) - 1})"
            )
        if address_column.size:
            if address_column.min() < 0:
                raise TraceError("trace addresses must be non-negative")
            if address_column.max() > _MAX_ADDRESS:
                raise TraceError("trace addresses must fit in a signed 64-bit integer")
        kind_column = kind_column.astype(np.int8)
        address_column = address_column.astype(np.int64)
        kind_column.setflags(write=False)
        address_column.setflags(write=False)
        trace = cls(name=name)
        trace._records = None
        trace._write_count = int(np.count_nonzero(np.isin(kind_column, _WRITE_INDICES)))
        trace._decoded = ((len(kind_column), 0), kind_column, address_column)
        return trace

    @property
    def records(self) -> list[TraceRecord]:
        """The references as :class:`TraceRecord` objects (built on first use)."""
        if self._records is None:
            _, kinds, addresses = self._decoded
            self._records = [
                TraceRecord(KIND_ORDER[kind], address)
                for kind, address in zip(kinds.tolist(), addresses.tolist())
            ]
        return self._records

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, accesses={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        if self.name != other.name or len(self) != len(other):
            return False
        mine, theirs = self.decoded(), other.decoded()
        return np.array_equal(mine[0], theirs[0]) and np.array_equal(mine[1], theirs[1])

    __hash__ = None  # mutable container

    def __len__(self) -> int:
        if self._records is None:
            return len(self._decoded[1])
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    def append(self, record: TraceRecord) -> None:
        """Append one record."""
        self.records.append(record)
        self._version += 1
        if record.is_write:
            self._write_count += 1

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Append many records."""
        added = list(records)
        self.records.extend(added)
        self._version += 1
        self._write_count += sum(1 for r in added if r.is_write)

    def decoded(self) -> tuple[np.ndarray, np.ndarray]:
        """The trace as ``(kind index, address)`` NumPy columns, memoised.

        The kind column indexes :data:`KIND_ORDER`; callers remap it to
        their own codes with a small lookup table.  The arrays are cached on
        the trace (and rebuilt if the trace has changed since — the memo is
        keyed on both the record count and a mutation version bumped by
        :meth:`append`/:meth:`extend`, so equal-length mutation through the
        documented API cannot replay stale arrays), so replaying one trace
        against several schemes or engines decodes it only once.  A
        column-backed trace (:meth:`from_columns`) starts with the memo
        already filled.  The returned arrays are shared and marked
        immutable; writing to them raises ``ValueError``.
        """
        count = len(self)
        key = (count, self._version)
        cached = self._decoded
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]
        kinds = np.fromiter(
            (_KIND_INDEX[record.kind] for record in self.records),
            dtype=np.int8,
            count=count,
        )
        addresses = np.fromiter(
            (record.address for record in self.records), dtype=np.int64, count=count
        )
        kinds.setflags(write=False)
        addresses.setflags(write=False)
        self._decoded = (key, kinds, addresses)
        return kinds, addresses

    def content_hash(self) -> str:
        """Content identity of the trace: SHA-256 over the decoded columns.

        This is the single trace identity used everywhere content matters —
        the artifact cache keys (:mod:`repro.workloads.artifacts`) and any
        campaign-side hashing of trace content — so there is exactly one
        definition of "the same trace".  The digest spans both the kind and
        the address columns and is memoised under the same
        ``(count, mutation version)`` key as :meth:`decoded`, so mutation
        through :meth:`append`/:meth:`extend` invalidates both together.
        """
        key = (len(self), self._version)
        cached = self._content_hash
        if cached is not None and cached[0] == key:
            return cached[1]
        kinds, addresses = self.decoded()
        digest = hashlib.sha256()
        digest.update(kinds.tobytes())
        digest.update(addresses.tobytes())
        value = digest.hexdigest()
        self._content_hash = (key, value)
        return value

    # -- summaries ------------------------------------------------------------

    @property
    def read_count(self) -> int:
        """Number of non-write references (maintained incrementally, O(1))."""
        return len(self) - self._write_count

    @property
    def write_count(self) -> int:
        """Number of write references (maintained incrementally, O(1))."""
        return self._write_count

    @property
    def read_fraction(self) -> float:
        """Fraction of references that are reads."""
        if len(self) == 0:
            return 0.0
        return self.read_count / len(self)

    def unique_blocks(self, block_size: int = 64) -> int:
        """Number of distinct cache blocks touched."""
        if block_size <= 0:
            raise TraceError("block_size must be positive")
        return len({r.address // block_size for r in self.records})

    def footprint_bytes(self, block_size: int = 64) -> int:
        """Footprint in bytes, at block granularity."""
        return self.unique_blocks(block_size) * block_size

    # -- file I/O --------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace to a text file (one ``<kind> <hex addr>`` per line).

        Parent directories are created as needed, matching the behaviour of
        the campaign result stores.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(f"# trace {self.name}\n")
            for record in self.records:
                handle.write(f"{record.kind.value} {record.address:#x}\n")

    def save_binary(self, path: str | Path, chunk_accesses: int = 1 << 20) -> None:
        """Write the trace in the binary chunked format (see ``streams``).

        The binary format is the on-disk half of out-of-core replay: it can
        be opened with :func:`repro.workloads.streams.open_trace` and
        replayed segment-by-segment without ever materialising the whole
        trace in memory.
        """
        from .streams import write_binary_trace

        kinds, addresses = self.decoded()
        write_binary_trace(
            path, self.name, kinds, addresses, chunk_accesses=chunk_accesses
        )

    @classmethod
    def load(cls, path: str | Path, name: str | None = None) -> "Trace":
        """Read a trace written by :meth:`save`.

        Raises:
            TraceError: on malformed lines, non-UTF-8 bytes, or a path that
                is not a readable file.
        """
        path = Path(path)
        trace = cls(name=name or path.stem)
        try:
            handle = path.open("r", encoding="utf-8")
        except OSError as exc:
            raise TraceError(f"{path}: cannot read trace file: {exc.strerror}") from exc
        with handle:
            try:
                for line_number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    parts = line.split()
                    if len(parts) != 2:
                        raise TraceError(
                            f"{path}:{line_number}: expected '<kind> <address>', "
                            f"got {line!r}"
                        )
                    try:
                        kind = AccessKind(parts[0])
                        address = int(parts[1], 16)
                        record = TraceRecord(kind=kind, address=address)
                    except (TraceError, ValueError) as exc:
                        raise TraceError(f"{path}:{line_number}: {exc}") from exc
                    trace.append(record)
            except UnicodeDecodeError as exc:
                raise TraceError(f"{path}: trace file is not UTF-8 text: {exc}") from exc
        return trace
