"""Tests for out-of-core trace storage and streaming ingestion."""

from __future__ import annotations

import re
import struct

import numpy as np
import pytest

from repro.errors import TraceError
from repro.workloads import (
    AccessKind,
    BinaryTraceSource,
    BinaryTraceWriter,
    TextTraceSource,
    Trace,
    TraceRecord,
    detect_format,
    generate_l2_trace,
    get_profile,
    open_trace,
    read_trace,
)
from repro.workloads.streams import _MAGIC
from repro.workloads.trace import _KIND_INDEX


def l2_trace(num_records: int = 1000, name: str = "mix") -> Trace:
    """A small deterministic L2-level trace mixing reads and writes."""
    records = []
    for index in range(num_records):
        kind = AccessKind.L2_WRITE if index % 7 == 3 else AccessKind.L2_READ
        records.append(TraceRecord(kind, 64 * (index % 97) + 4096 * (index % 5)))
    return Trace(name=name, records=records)


def collect(source, segment_accesses):
    """Concatenate a source's segments back into whole decoded columns."""
    segments = list(source.segments(segment_accesses))
    if not segments:
        return (
            np.zeros(0, dtype=np.int8),
            np.zeros(0, dtype=np.int64),
            0,
        )
    kinds = np.concatenate([kinds for kinds, _ in segments])
    addresses = np.concatenate([addresses for _, addresses in segments])
    return kinds, addresses, len(segments)


class TestBinaryFormat:
    def test_roundtrip_is_identical(self, tmp_path):
        trace = l2_trace(2500)
        path = tmp_path / "trace.bin"
        trace.save_binary(path, chunk_accesses=512)
        with open_trace(path) as source:
            assert isinstance(source, BinaryTraceSource)
            assert len(source) == len(trace)
            assert source.name == "mix"
            ref_kinds, ref_addresses = trace.decoded()
            for segment_accesses in (100, 512, 700, 5000):
                kinds, addresses, _ = collect(source, segment_accesses)
                assert np.array_equal(kinds, ref_kinds)
                assert np.array_equal(addresses, ref_addresses)

    def test_segment_sizing_and_reiterability(self, tmp_path):
        trace = l2_trace(1000)
        path = tmp_path / "trace.bin"
        trace.save_binary(path, chunk_accesses=300)  # segments span chunks
        source = open_trace(path)
        segments = list(source.segments(400))
        assert [len(k) for k, _ in segments] == [400, 400, 200]
        # A second pass starts from the beginning again.
        again = list(source.segments(400))
        assert all(
            np.array_equal(a, b) for (a, _), (b, _) in zip(segments, again)
        )
        source.close()

    def test_segments_are_read_only_views(self, tmp_path):
        trace = l2_trace(100)
        path = tmp_path / "trace.bin"
        trace.save_binary(path)
        with open_trace(path) as source:
            kinds, addresses = next(source.segments(50))
            assert not kinds.flags.writeable
            assert not addresses.flags.writeable

    def test_save_binary_creates_parent_directories(self, tmp_path):
        trace = l2_trace(10)
        path = tmp_path / "deep" / "nested" / "trace.bin"
        trace.save_binary(path)
        assert len(open_trace(path)) == 10

    def test_writer_incremental_append(self, tmp_path):
        trace = l2_trace(950)
        ref_kinds, ref_addresses = trace.decoded()
        path = tmp_path / "trace.bin"
        with BinaryTraceWriter(path, "incremental", chunk_accesses=128) as writer:
            for start in range(0, 950, 37):  # ragged appends vs chunk size
                writer.append(
                    ref_kinds[start : start + 37], ref_addresses[start : start + 37]
                )
        with open_trace(path) as source:
            assert source.name == "incremental"
            kinds, addresses, _ = collect(source, 333)
            assert np.array_equal(kinds, ref_kinds)
            assert np.array_equal(addresses, ref_addresses)

    def test_writer_append_records(self, tmp_path):
        path = tmp_path / "trace.bin"
        records = [TraceRecord(AccessKind.L2_READ, 64), TraceRecord(AccessKind.L2_WRITE, 128)]
        with BinaryTraceWriter(path, "short") as writer:
            writer.append_records(records)
        assert read_trace(path).records == records

    def test_writer_rejects_bad_input(self, tmp_path):
        writer = BinaryTraceWriter(tmp_path / "t.bin", "bad")
        with pytest.raises(TraceError, match="KIND_ORDER"):
            writer.append(np.array([9], dtype=np.int8), np.array([0], dtype=np.int64))
        with pytest.raises(TraceError, match="non-negative"):
            writer.append(np.array([3], dtype=np.int8), np.array([-1], dtype=np.int64))
        with pytest.raises(TraceError, match="equal length"):
            writer.append(np.array([3, 3], dtype=np.int8), np.array([0], dtype=np.int64))
        writer.close()
        with pytest.raises(TraceError, match="closed"):
            writer.append(np.array([3], dtype=np.int8), np.array([0], dtype=np.int64))

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.bin"
        Trace(name="empty").save_binary(path)
        with open_trace(path) as source:
            assert len(source) == 0
            assert list(source.segments(10)) == []

    def test_name_override(self, tmp_path):
        path = tmp_path / "trace.bin"
        l2_trace(5, name="stored").save_binary(path)
        assert open_trace(path).name == "stored"
        assert open_trace(path, name="override").name == "override"

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "trace.bin"
        l2_trace(500).save_binary(path, chunk_accesses=100)
        data = path.read_bytes()
        truncated = tmp_path / "broken.bin"
        truncated.write_bytes(data[: len(data) - 64])
        with pytest.raises(TraceError, match="truncated|chunks hold"):
            open_trace(truncated)

    def test_unclosed_writer_detected(self, tmp_path):
        path = tmp_path / "trace.bin"
        writer = BinaryTraceWriter(path, "orphan", chunk_accesses=4)
        writer.append(
            np.full(8, _KIND_INDEX[AccessKind.L2_READ], dtype=np.int8),
            np.arange(8, dtype=np.int64) * 64,
        )
        writer._handle.close()  # simulate a crash before close()
        with pytest.raises(TraceError, match="writer not closed"):
            open_trace(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTATRCE" + b"\x00" * 32)
        with pytest.raises(TraceError, match="bad magic"):
            BinaryTraceSource(path)

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "future.bin"
        path.write_bytes(struct.pack("<8sIIQ", _MAGIC, 99, 0, 0))
        with pytest.raises(TraceError, match="version 99"):
            open_trace(path)

    def test_non_utf8_stored_name_raises_trace_error(self, tmp_path):
        path = tmp_path / "badname.bin"
        name = b"\xff\xfe"
        path.write_bytes(struct.pack("<8sIIQ", _MAGIC, 1, len(name), 0) + name)
        with pytest.raises(TraceError, match=r"badname\.bin.*UTF-8"):
            open_trace(path)

    def test_segment_accesses_must_be_positive(self, tmp_path):
        path = tmp_path / "trace.bin"
        l2_trace(10).save_binary(path)
        with open_trace(path) as source:
            with pytest.raises(TraceError, match="positive"):
                list(source.segments(0))


class TestTextFormats:
    def test_native_text_matches_trace_load(self, tmp_path):
        trace = l2_trace(400)
        path = tmp_path / "trace.txt"
        trace.save(path)
        source = open_trace(path)
        assert isinstance(source, TextTraceSource)
        assert source.format == "text"
        assert len(source) == 400
        ref_kinds, ref_addresses = trace.decoded()
        kinds, addresses, count = collect(source, 150)
        assert count == 3
        assert np.array_equal(kinds, ref_kinds)
        assert np.array_equal(addresses, ref_addresses)

    def test_din_format(self, tmp_path):
        path = tmp_path / "trace.din"
        path.write_text("# header\n0 400000\n1 400040\n2 8000\n")
        source = open_trace(path)
        assert source.format == "din"
        kinds, addresses = next(source.segments(10))
        assert kinds.tolist() == [
            _KIND_INDEX[AccessKind.L2_READ],
            _KIND_INDEX[AccessKind.L2_WRITE],
            _KIND_INDEX[AccessKind.L2_READ],
        ]
        assert addresses.tolist() == [0x400000, 0x400040, 0x8000]

    def test_lackey_format_expands_modify(self, tmp_path):
        path = tmp_path / "trace.lk"
        path.write_text(
            "==1234== valgrind banner\n"
            "I  0023C790,2\n"
            " L 04EB8B98,8\n"
            " S 04EB8B98,8\n"
            " M 0421C7D0,4\n"
        )
        source = open_trace(path)
        assert source.format == "lackey"
        assert len(source) == 5  # M counts twice
        kinds, addresses = next(source.segments(10))
        read, write = _KIND_INDEX[AccessKind.L2_READ], _KIND_INDEX[AccessKind.L2_WRITE]
        assert kinds.tolist() == [read, read, write, read, write]
        assert addresses.tolist()[-2:] == [0x0421C7D0, 0x0421C7D0]

    def test_error_context_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.din"
        path.write_text("0 400000\n7 nope\n")
        with pytest.raises(TraceError, match=r"bad\.din:2"):
            open_trace(path, format="din")
        lackey = tmp_path / "bad.lk"
        lackey.write_text("I 1000,4\nX 2000,4\n")
        with pytest.raises(TraceError, match=r"bad\.lk:2"):
            open_trace(lackey, format="lackey")
        text = tmp_path / "bad.txt"
        text.write_text("R 0x40\nR -0x40\n")
        with pytest.raises(TraceError, match=r"bad\.txt:2.*non-negative"):
            open_trace(text, format="text")

    @pytest.mark.parametrize(
        "address", ("8000000000000000", "ffffffffffffffffffff"), ids=("2^63", "20-digit")
    )
    @pytest.mark.parametrize(
        "fmt, template",
        (("text", "R 0x{}"), ("din", "0 {}"), ("lackey", "L {},4")),
        ids=("text", "din", "lackey"),
    )
    def test_address_beyond_int64_names_path_and_line(
        self, tmp_path, fmt, template, address
    ):
        path = tmp_path / f"huge.{fmt}"
        path.write_text(template.format("40") + "\n" + template.format(address) + "\n")
        with pytest.raises(TraceError, match=r"huge\.\w+:2.*64-bit"):
            source = open_trace(path, format=fmt)
            list(source.segments(10))

    def test_unknown_text_format_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("R 0x40\n")
        with pytest.raises(TraceError, match="unknown text trace format"):
            TextTraceSource(path, format="champsim-binary")


class TestDetectionAndOpen:
    def test_detect_each_format(self, tmp_path):
        binary = tmp_path / "a.bin"
        l2_trace(5).save_binary(binary)
        text = tmp_path / "a.txt"
        l2_trace(5).save(text)
        din = tmp_path / "a.din"
        din.write_text("0 400000\n")
        lackey = tmp_path / "a.lk"
        lackey.write_text(" L 04EB8B98,8\n")
        assert detect_format(binary) == "binary"
        assert detect_format(text) == "text"
        assert detect_format(din) == "din"
        assert detect_format(lackey) == "lackey"

    def test_detect_rejects_unknown_and_empty(self, tmp_path):
        weird = tmp_path / "weird.txt"
        weird.write_text("hello world this is not a trace\n")
        with pytest.raises(TraceError, match="unrecognised trace format"):
            detect_format(weird)
        empty = tmp_path / "empty.txt"
        empty.write_text("# only comments\n\n")
        with pytest.raises(TraceError, match="empty trace file"):
            detect_format(empty)

    def test_open_trace_validates_inputs(self, tmp_path):
        with pytest.raises(TraceError, match="unknown trace format"):
            open_trace(tmp_path / "x", format="parquet")
        with pytest.raises(TraceError, match="not found"):
            open_trace(tmp_path / "missing.bin")

    @pytest.mark.parametrize("format", ("auto", "binary", "text"))
    def test_directory_raises_trace_error(self, tmp_path, format):
        with pytest.raises(TraceError, match=f"{re.escape(str(tmp_path))}: is a directory"):
            open_trace(tmp_path, format=format)
        with pytest.raises(TraceError, match=f"{re.escape(str(tmp_path))}: is a directory"):
            read_trace(tmp_path, format=format)

    def test_detect_format_rejects_directory_and_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="is a directory"):
            detect_format(tmp_path)
        with pytest.raises(TraceError, match="not found"):
            detect_format(tmp_path / "missing.txt")

    def test_read_trace_roundtrips_generated_trace(self, tmp_path):
        from repro.config import paper_l2_config

        trace = generate_l2_trace(get_profile("mcf"), paper_l2_config(), 3000, seed=2)
        path = tmp_path / "gen.bin"
        trace.save_binary(path, chunk_accesses=700)
        loaded = read_trace(path)
        assert loaded.name == trace.name
        assert loaded.records == trace.records
