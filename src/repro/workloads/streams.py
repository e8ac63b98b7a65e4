"""Out-of-core trace storage and streaming ingestion.

This module is the on-disk half of constant-memory replay.  A
:class:`TraceSource` is anything that can hand the engines the trace as a
sequence of decoded ``(kinds, addresses)`` segments — NumPy columns in the
:data:`~repro.workloads.trace.KIND_ORDER` encoding — without ever
materialising the whole trace in memory.  The engines
(:func:`repro.sim.run_l2_trace` with ``segment_accesses``, and
:func:`repro.sim.fastpath.replay_l2_segments` underneath) replay the
segments one at a time; the compact per-set state protocol carries all cache,
policy, accumulator and energy state across segment boundaries, so segmented
replay is bit-identical to whole-trace replay.

Three source flavours are provided:

* :class:`BinaryTraceSource` — the native binary chunked format written by
  :meth:`Trace.save_binary` / :class:`BinaryTraceWriter`.  The file is
  memory-mapped; each segment is a zero-copy (or at worst segment-sized)
  view into the map, so peak memory is bounded by the segment size no
  matter how long the trace is.
* :class:`TextTraceSource` — streaming line-by-line readers for three text
  formats: the repo's native ``<kind> <hex>`` format, ChampSim/SimpleScalar
  ``din``-style numeric traces (``0|1|2 <hex>`` = load/store/ifetch), and
  valgrind-lackey style (``I/L/S/M <hex>,<size>``; ``M`` expands to a load
  plus a store).  External formats carry no cache-level information, so
  their references are mapped onto the L2-visible stream (loads and
  instruction fetches become ``L2_READ``, stores become ``L2_WRITE``).
* :func:`open_trace` — opens any of the above, auto-detecting the format
  from the binary magic or the first significant text line.

Binary format (all integers little-endian, every section 8-byte aligned so
the reader can build aligned NumPy views directly over the map)::

    magic    8 bytes   b"REAPTRC\\x01"
    version  u32       format version (currently 1)
    name_len u32       byte length of the UTF-8 trace name
    count    u64       total number of records (written on close)
    name     name_len bytes, zero-padded to a multiple of 8
    chunk*   u64 count | u8 kinds[count] | pad to 8 | i64 addresses[count]
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from ..errors import TraceError
from .trace import _KIND_INDEX, _MAX_ADDRESS, KIND_ORDER, AccessKind, Trace

#: Default replay segment length (accesses per segment).  One segment of a
#: million accesses costs ~9 MB of decoded arrays — small enough to bound
#: memory, large enough to keep the vectorised kernels efficient.
DEFAULT_SEGMENT_ACCESSES = 1 << 20

#: Default number of accesses per on-disk chunk in the binary format.
DEFAULT_CHUNK_ACCESSES = 1 << 20

_MAGIC = b"REAPTRC\x01"
_VERSION = 1
_HEADER = struct.Struct("<8sIIQ")  # magic, version, name_len, total count

_L2_READ_INDEX = _KIND_INDEX[AccessKind.L2_READ]
_L2_WRITE_INDEX = _KIND_INDEX[AccessKind.L2_WRITE]

#: Formats accepted by :func:`open_trace`.
FORMAT_CHOICES = ("auto", "binary", "text", "din", "lackey")


def _check_segment_accesses(segment_accesses: int) -> None:
    if segment_accesses <= 0:
        raise TraceError("segment_accesses must be positive")


def _pad_to_8(n: int) -> int:
    return (-n) % 8


@runtime_checkable
class TraceSource(Protocol):
    """A named access stream readable as decoded segments.

    ``segments`` must be *re-iterable*: each call starts a fresh pass over
    the whole trace, so one source can drive several schemes in turn (the
    way :func:`repro.sim.compare_schemes` replays one trace per scheme).
    The yielded arrays use the :data:`~repro.workloads.trace.KIND_ORDER`
    kind encoding and are only valid until the next iteration step — copy
    them if they must outlive it.
    """

    name: str

    def __len__(self) -> int: ...

    def segments(
        self, segment_accesses: int = DEFAULT_SEGMENT_ACCESSES
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]: ...


class BinaryTraceWriter:
    """Incremental writer for the binary chunked trace format.

    Records are appended as decoded arrays and flushed to disk one chunk at
    a time, so arbitrarily long traces can be written in bounded memory:

    >>> with BinaryTraceWriter(path, "mix") as writer:
    ...     for kinds, addresses in source.segments():
    ...         writer.append(kinds, addresses)
    """

    def __init__(
        self,
        path: str | Path,
        name: str,
        chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
    ) -> None:
        if chunk_accesses <= 0:
            raise TraceError("chunk_accesses must be positive")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self.name = name
        self._chunk_accesses = chunk_accesses
        self._pending_kinds: list[np.ndarray] = []
        self._pending_addresses: list[np.ndarray] = []
        self._pending = 0
        self._total = 0
        self._closed = False
        name_bytes = name.encode("utf-8")
        self._handle = self._path.open("wb")
        self._handle.write(_HEADER.pack(_MAGIC, _VERSION, len(name_bytes), 0))
        self._handle.write(name_bytes + b"\x00" * _pad_to_8(len(name_bytes)))

    def append(self, kinds: np.ndarray, addresses: np.ndarray) -> None:
        """Append decoded records (``KIND_ORDER`` kinds, byte addresses)."""
        if self._closed:
            raise TraceError("writer is closed")
        kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if kinds.shape != addresses.shape or kinds.ndim != 1:
            raise TraceError("kinds and addresses must be 1-D arrays of equal length")
        if kinds.size == 0:
            return
        if kinds.min() < 0 or kinds.max() >= len(KIND_ORDER):
            raise TraceError("kind codes must index KIND_ORDER")
        if addresses.min() < 0:
            raise TraceError("trace addresses must be non-negative")
        self._pending_kinds.append(kinds)
        self._pending_addresses.append(addresses)
        self._pending += kinds.size
        while self._pending >= self._chunk_accesses:
            self._flush_chunk(self._chunk_accesses)

    def append_records(self, records) -> None:
        """Append :class:`TraceRecord` objects (convenience for small batches)."""
        records = list(records)
        if not records:
            return
        kinds = np.fromiter(
            (_KIND_INDEX[r.kind] for r in records), dtype=np.int8, count=len(records)
        )
        addresses = np.fromiter(
            (r.address for r in records), dtype=np.int64, count=len(records)
        )
        self.append(kinds, addresses)

    def _take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        kinds = np.concatenate(self._pending_kinds)
        addresses = np.concatenate(self._pending_addresses)
        head_k, tail_k = kinds[:count], kinds[count:]
        head_a, tail_a = addresses[:count], addresses[count:]
        self._pending_kinds = [tail_k] if tail_k.size else []
        self._pending_addresses = [tail_a] if tail_a.size else []
        self._pending -= count
        return head_k, head_a

    def _flush_chunk(self, count: int) -> None:
        kinds, addresses = self._take(count)
        self._handle.write(struct.pack("<Q", count))
        self._handle.write(kinds.tobytes())
        self._handle.write(b"\x00" * _pad_to_8(count))
        self._handle.write(addresses.tobytes())
        self._total += count

    def close(self) -> None:
        """Flush the final partial chunk and patch the record count."""
        if self._closed:
            return
        if self._pending:
            self._flush_chunk(self._pending)
        self._handle.seek(_HEADER.size - 8)
        self._handle.write(struct.pack("<Q", self._total))
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_binary_trace(
    path: str | Path,
    name: str,
    kinds: np.ndarray,
    addresses: np.ndarray,
    chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
) -> None:
    """Write already-decoded columns as one binary trace file."""
    with BinaryTraceWriter(path, name, chunk_accesses=chunk_accesses) as writer:
        writer.append(kinds, addresses)


class BinaryTraceSource:
    """Memory-mapped reader for the binary chunked trace format.

    Segments are served as read-only NumPy views over the map whenever a
    segment falls inside one chunk; segments spanning chunk boundaries are
    assembled with one segment-sized concatenation.  Either way, resident
    memory is bounded by the segment size — the OS pages trace data in and
    out beneath the views.
    """

    def __init__(self, path: str | Path, name: str | None = None) -> None:
        self._path = Path(path)
        self._handle = self._path.open("rb")
        try:
            self._map = mmap.mmap(self._handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-byte file
            self._handle.close()
            raise TraceError(f"{self._path}: not a binary trace: {exc}") from exc
        try:
            self._parse_header(name)
            self._index_chunks()
        except Exception:
            self.close()
            raise

    def _parse_header(self, name: str | None) -> None:
        if len(self._map) < _HEADER.size:
            raise TraceError(f"{self._path}: truncated binary trace header")
        magic, version, name_len, count = _HEADER.unpack_from(self._map, 0)
        if magic != _MAGIC:
            raise TraceError(f"{self._path}: not a binary trace (bad magic)")
        if version != _VERSION:
            raise TraceError(
                f"{self._path}: unsupported binary trace version {version}"
            )
        name_end = _HEADER.size + name_len
        if name_end > len(self._map):
            raise TraceError(f"{self._path}: truncated binary trace name")
        try:
            stored_name = bytes(self._map[_HEADER.size : name_end]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceError(
                f"{self._path}: binary trace name is not valid UTF-8: {exc}"
            ) from exc
        self.name = name if name is not None else (stored_name or self._path.stem)
        self._count = count
        self._data_start = name_end + _pad_to_8(name_len)

    def _index_chunks(self) -> None:
        """Walk the chunk headers once and record (kinds, addresses) spans."""
        self._chunks: list[tuple[int, int, int]] = []  # (kinds_off, addr_off, count)
        offset = self._data_start
        total = 0
        size = len(self._map)
        while offset < size:
            if offset + 8 > size:
                raise TraceError(f"{self._path}: truncated chunk header")
            (count,) = struct.unpack_from("<Q", self._map, offset)
            kinds_off = offset + 8
            addr_off = kinds_off + count + _pad_to_8(count)
            end = addr_off + 8 * count
            if end > size:
                raise TraceError(f"{self._path}: truncated chunk data")
            self._chunks.append((kinds_off, addr_off, count))
            total += count
            offset = end
        if total != self._count:
            raise TraceError(
                f"{self._path}: header records {self._count} accesses but chunks "
                f"hold {total} (file truncated or writer not closed)"
            )

    def __len__(self) -> int:
        return self._count

    def _chunk_arrays(self, chunk: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
        kinds_off, addr_off, count = chunk
        kinds = np.frombuffer(self._map, dtype=np.int8, count=count, offset=kinds_off)
        addresses = np.frombuffer(
            self._map, dtype=np.int64, count=count, offset=addr_off
        )
        return kinds, addresses

    def segments(
        self, segment_accesses: int = DEFAULT_SEGMENT_ACCESSES
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield read-only ``(kinds, addresses)`` segments in trace order."""
        _check_segment_accesses(segment_accesses)
        pending_k: list[np.ndarray] = []
        pending_a: list[np.ndarray] = []
        pending = 0
        for chunk in self._chunks:
            kinds, addresses = self._chunk_arrays(chunk)
            start = 0
            while start < kinds.size:
                take = min(segment_accesses - pending, kinds.size - start)
                pending_k.append(kinds[start : start + take])
                pending_a.append(addresses[start : start + take])
                pending += take
                start += take
                if pending == segment_accesses:
                    yield self._emit(pending_k, pending_a)
                    pending_k, pending_a, pending = [], [], 0
        if pending:
            yield self._emit(pending_k, pending_a)

    @staticmethod
    def _emit(
        kinds: list[np.ndarray], addresses: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        if len(kinds) == 1:
            segment = (kinds[0], addresses[0])
        else:
            segment = (np.concatenate(kinds), np.concatenate(addresses))
        k = segment[0]
        if k.size and (k.min() < 0 or k.max() >= len(KIND_ORDER)):
            raise TraceError("corrupt binary trace: kind code out of range")
        return segment

    def close(self) -> None:
        """Release the memory map and file handle.

        Segment arrays are views over the map; while any is still alive the
        mapping cannot be unmapped and is instead released when the last
        view is garbage collected.
        """
        try:
            self._map.close()
        except BufferError:
            pass  # live segment views; the map is freed with them
        self._handle.close()

    def __enter__(self) -> "BinaryTraceSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- text formats --------------------------------------------------------------

#: din-style numeric labels: 0 = load, 1 = store, 2 = instruction fetch.
_DIN_KIND = {"0": _L2_READ_INDEX, "1": _L2_WRITE_INDEX, "2": _L2_READ_INDEX}

#: lackey operations mapped to KIND_ORDER indices (M expands to both).
_LACKEY_KIND = {
    "I": (_L2_READ_INDEX,),
    "L": (_L2_READ_INDEX,),
    "S": (_L2_WRITE_INDEX,),
    "M": (_L2_READ_INDEX, _L2_WRITE_INDEX),
}


def _skip_line(line: str) -> bool:
    return not line or line.startswith("#") or line.startswith("==")


def _parse_address(token: str) -> int:
    address = int(token, 16)
    if address < 0:
        raise ValueError("trace addresses must be non-negative")
    if address > _MAX_ADDRESS:
        raise ValueError(
            f"trace address {token} does not fit in a signed 64-bit integer"
        )
    return address


class TextTraceSource:
    """Streaming reader for the supported text trace formats.

    The file is parsed twice: once on open to count records (so the engines
    can report ``num_accesses`` and size progress displays), and once per
    :meth:`segments` pass.  Both passes hold one line plus one segment of
    decoded arrays in memory at a time.
    """

    def __init__(
        self, path: str | Path, format: str = "text", name: str | None = None
    ) -> None:
        if format not in ("text", "din", "lackey"):
            raise TraceError(
                f"unknown text trace format {format!r}; "
                f"choose one of ('text', 'din', 'lackey')"
            )
        self._path = Path(path)
        self.format = format
        self.name = name if name is not None else self._path.stem
        self._count = sum(1 for _ in self._records())

    def __len__(self) -> int:
        return self._count

    def _records(self) -> Iterator[tuple[int, int]]:
        """Yield ``(kind index, address)`` pairs with path:line error context."""
        parse = getattr(self, f"_parse_{self.format}")
        with self._path.open("r", encoding="utf-8", errors="replace") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if _skip_line(line):
                    continue
                try:
                    yield from parse(line)
                except (TraceError, ValueError) as exc:
                    raise TraceError(
                        f"{self._path}:{line_number}: {exc}"
                    ) from exc

    @staticmethod
    def _parse_text(line: str) -> Iterator[tuple[int, int]]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected '<kind> <address>', got {line!r}")
        yield _KIND_INDEX[AccessKind(parts[0])], _parse_address(parts[1])

    @staticmethod
    def _parse_din(line: str) -> Iterator[tuple[int, int]]:
        parts = line.split()
        if len(parts) < 2 or parts[0] not in _DIN_KIND:
            raise ValueError(
                f"expected '<0|1|2> <hex address>' (din-style), got {line!r}"
            )
        yield _DIN_KIND[parts[0]], _parse_address(parts[1])

    @staticmethod
    def _parse_lackey(line: str) -> Iterator[tuple[int, int]]:
        parts = line.split()
        if len(parts) != 2 or parts[0] not in _LACKEY_KIND:
            raise ValueError(
                f"expected 'I|L|S|M <hex address>,<size>' (lackey-style), "
                f"got {line!r}"
            )
        address = _parse_address(parts[1].split(",", 1)[0])
        for kind_index in _LACKEY_KIND[parts[0]]:
            yield kind_index, address

    def segments(
        self, segment_accesses: int = DEFAULT_SEGMENT_ACCESSES
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(kinds, addresses)`` segments decoded on the fly."""
        _check_segment_accesses(segment_accesses)
        kinds = np.empty(segment_accesses, dtype=np.int8)
        addresses = np.empty(segment_accesses, dtype=np.int64)
        filled = 0
        for kind_index, address in self._records():
            kinds[filled] = kind_index
            addresses[filled] = address
            filled += 1
            if filled == segment_accesses:
                yield kinds, addresses
                kinds = np.empty(segment_accesses, dtype=np.int8)
                addresses = np.empty(segment_accesses, dtype=np.int64)
                filled = 0
        if filled:
            yield kinds[:filled], addresses[:filled]

    def close(self) -> None:
        """Nothing to release; present for :class:`TraceSource` symmetry."""

    def __enter__(self) -> "TextTraceSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _require_file(path: Path) -> None:
    """Raise :class:`TraceError` unless ``path`` names an existing file."""
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    if path.is_dir():
        raise TraceError(f"{path}: is a directory, not a trace file")


def detect_format(path: str | Path) -> str:
    """Detect a trace file's format from its magic or first significant line.

    Returns one of ``"binary"``, ``"text"``, ``"din"`` or ``"lackey"``.

    Raises:
        TraceError: if ``path`` is not a file or no supported format matches.
    """
    path = Path(path)
    _require_file(path)
    with path.open("rb") as handle:
        head = handle.read(len(_MAGIC))
    if head == _MAGIC:
        return "binary"
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if _skip_line(line):
                continue
            parts = line.split()
            first = parts[0]
            if first in _DIN_KIND and len(parts) >= 2:
                return "din"
            if first in _LACKEY_KIND and len(parts) == 2 and "," in parts[1]:
                return "lackey"
            if first in AccessKind._value2member_map_ and len(parts) == 2:
                return "text"
            raise TraceError(
                f"{path}: unrecognised trace format (first significant line: "
                f"{line!r})"
            )
    raise TraceError(f"{path}: empty trace file, cannot detect format")


def open_trace(
    path: str | Path, format: str = "auto", name: str | None = None
) -> TraceSource:
    """Open a trace file of any supported format as a :class:`TraceSource`.

    Args:
        path: Trace file path.
        format: ``"binary"``, ``"text"``, ``"din"``, ``"lackey"`` or
            ``"auto"`` (the default) to detect from the file contents.
        name: Trace name override; defaults to the stored name (binary) or
            the file stem (text formats).

    Raises:
        TraceError: on unknown/undetectable formats or malformed files.
    """
    if format not in FORMAT_CHOICES:
        raise TraceError(
            f"unknown trace format {format!r}; choose one of {FORMAT_CHOICES}"
        )
    path = Path(path)
    _require_file(path)
    if format == "auto":
        format = detect_format(path)
    if format == "binary":
        return BinaryTraceSource(path, name=name)
    return TextTraceSource(path, format, name=name)


def read_trace(path: str | Path, format: str = "auto", name: str | None = None) -> Trace:
    """Load any supported trace file fully into an in-memory :class:`Trace`.

    Convenience for small traces and tests; use :func:`open_trace` plus the
    engines' ``segment_accesses`` for out-of-core replay.  The result is a
    column-backed trace (:meth:`Trace.from_columns`) over the concatenated
    segments, so no per-access record is built unless one is asked for.
    """
    source = open_trace(path, format=format, name=name)
    try:
        segments = list(source.segments())
        if not segments:
            return Trace(name=source.name)
        kinds, addresses = zip(*segments)
        return Trace.from_columns(
            source.name, np.concatenate(kinds), np.concatenate(addresses)
        )
    finally:
        close = getattr(source, "close", None)
        if close is not None:
            close()
