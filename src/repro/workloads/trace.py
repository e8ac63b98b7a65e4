"""Memory-access trace containers and file I/O.

Two trace granularities are used in the reproduction:

* **CPU-level traces** (instruction fetches, loads, stores) drive the full
  two-level hierarchy of :class:`repro.cache.CacheHierarchy`, mirroring the
  paper's gem5 setup.
* **L2-level traces** (reads and write-backs as seen by the shared L2) drive
  a protected cache directly; the synthetic SPEC profiles generate at this
  level because the phenomenon under study — concealed-read accumulation —
  is entirely determined by the L2 access sequence.

A :class:`Trace` is immutable and has one representation: a pair of
read-only NumPy columns (int8 indices into :data:`KIND_ORDER` plus int64
addresses).  The engines, the artifact cache and :meth:`Trace.content_hash`
read the columns (:meth:`Trace.decoded`, :meth:`Trace.segments`);
:class:`TraceRecord` objects exist only at the edges — the constructor
converts them to columns once, and ``records``, iteration and indexing
build them on demand.

Traces can be saved to a simple text format (one record per line:
``<kind> <hex address>``) so experiments are reproducible and shareable
without rerunning the generators; :meth:`Trace.load` reads it back through
the one text parser, :class:`~repro.workloads.streams.TextTraceSource`.
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


def _check_segment_accesses(segment_accesses: int) -> None:
    if segment_accesses <= 0:
        raise TraceError("segment_accesses must be positive")


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
    """An ordered, immutable sequence of memory references with a name.

    The trace *is* its pair of read-only NumPy columns: int8 indices into
    :data:`KIND_ORDER` and int64 byte addresses (see :meth:`decoded`).
    :meth:`from_columns` adopts columns directly, which is how the
    generators and :func:`~repro.workloads.streams.read_trace` build
    traces; the constructor converts :class:`TraceRecord` objects to
    columns once, as a convenience for small hand-written traces.
    :attr:`records`, iteration and indexing build records on demand.
    """

    def __init__(self, name: str, records: Iterable[TraceRecord] = ()) -> None:
        records = list(records)
        self.name = name
        self._content_hash: str | None = None
        self._adopt(
            np.fromiter(
                (_KIND_INDEX[record.kind] for record in records),
                dtype=np.int8,
                count=len(records),
            ),
            np.fromiter(
                (record.address for record in records),
                dtype=np.int64,
                count=len(records),
            ),
        )

    def _adopt(self, kinds: np.ndarray, addresses: np.ndarray) -> None:
        """Hold read-only int8/int64 copies of validated columns."""
        self._kinds = kinds.astype(np.int8)
        self._addresses = addresses.astype(np.int64)
        self._kinds.setflags(write=False)
        self._addresses.setflags(write=False)

    @classmethod
    def from_columns(cls, name: str, kinds, addresses) -> "Trace":
        """A trace over ``(kind index, address)`` columns.

        ``kinds`` index :data:`KIND_ORDER` and ``addresses`` are byte
        addresses, exactly as :meth:`decoded` returns them.  The columns are
        copied into read-only int8/int64 arrays; no :class:`TraceRecord`
        object is built.

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
        trace = cls(name=name)
        trace._adopt(kind_column, address_column)
        return trace

    @property
    def records(self) -> list[TraceRecord]:
        """The references as a fresh list of :class:`TraceRecord` objects."""
        return list(self)

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, accesses={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.name == other.name
            and np.array_equal(self._kinds, other._kinds)
            and np.array_equal(self._addresses, other._addresses)
        )

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[TraceRecord]:
        for kind, address in zip(self._kinds.tolist(), self._addresses.tolist()):
            yield TraceRecord(KIND_ORDER[kind], address)

    def __getitem__(self, index: int) -> TraceRecord:
        return TraceRecord(KIND_ORDER[self._kinds[index]], int(self._addresses[index]))

    def decoded(self) -> tuple[np.ndarray, np.ndarray]:
        """The trace as its ``(kind index, address)`` NumPy columns.

        The kind column indexes :data:`KIND_ORDER`; callers remap it to
        their own codes with a small lookup table.  The arrays are the
        trace's own, shared and marked immutable; writing to them raises
        ``ValueError``.
        """
        return self._kinds, self._addresses

    def segments(
        self, segment_accesses: int | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield the columns in segments of ``segment_accesses`` accesses.

        ``None`` (the default) yields the whole trace as one segment, so an
        in-memory trace is replayed through the same
        :class:`~repro.workloads.streams.TraceSource` path as a file.  An
        empty trace yields no segment.
        """
        if segment_accesses is None:
            if len(self):
                yield self._kinds, self._addresses
            return
        _check_segment_accesses(segment_accesses)
        for start in range(0, len(self), segment_accesses):
            stop = start + segment_accesses
            yield self._kinds[start:stop], self._addresses[start:stop]

    def content_hash(self) -> str:
        """Content identity of the trace: SHA-256 over the decoded columns.

        This is the single trace identity used everywhere content matters —
        the artifact cache keys (:mod:`repro.workloads.artifacts`) and any
        campaign-side hashing of trace content — so there is exactly one
        definition of "the same trace".  The digest spans both the kind and
        the address columns (not the name) and is computed once per trace.
        """
        if self._content_hash is None:
            digest = hashlib.sha256()
            digest.update(self._kinds.tobytes())
            digest.update(self._addresses.tobytes())
            self._content_hash = digest.hexdigest()
        return self._content_hash

    # -- summaries ------------------------------------------------------------

    @property
    def write_count(self) -> int:
        """Number of write references (stores and L2 write-backs)."""
        return int(np.count_nonzero(np.isin(self._kinds, _WRITE_INDICES)))

    @property
    def read_count(self) -> int:
        """Number of non-write references."""
        return len(self) - self.write_count

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
        return len(np.unique(self._addresses // block_size))

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
        labels = [kind.value for kind in KIND_ORDER]
        with path.open("w", encoding="utf-8") as handle:
            handle.write(f"# trace {self.name}\n")
            handle.writelines(
                f"{labels[kind]} {address:#x}\n"
                for kind, address in zip(self._kinds.tolist(), self._addresses.tolist())
            )

    def save_binary(self, path: str | Path, chunk_accesses: int = 1 << 20) -> None:
        """Write the trace in the binary chunked format (see ``streams``).

        The binary format is the on-disk half of out-of-core replay: it can
        be opened with :func:`repro.workloads.streams.open_trace` and
        replayed segment-by-segment without ever materialising the whole
        trace in memory.
        """
        from .streams import write_binary_trace

        write_binary_trace(
            path, self.name, self._kinds, self._addresses, chunk_accesses=chunk_accesses
        )

    @classmethod
    def load(cls, path: str | Path, name: str | None = None) -> "Trace":
        """Read a trace written by :meth:`save` (the native text format).

        Equivalent to ``read_trace(path, format="text", name=name)``: the
        one text parser is :class:`~repro.workloads.streams.TextTraceSource`.

        Raises:
            TraceError: on a malformed line (naming ``path:line``) or a path
                that is not a file.
        """
        from .streams import read_trace

        return read_trace(path, format="text", name=name)
