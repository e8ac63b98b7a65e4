"""Tests for trace containers and file I/O."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.workloads import AccessKind, Trace, TraceRecord
from repro.workloads.trace import KIND_ORDER


class TestTraceRecord:
    def test_is_write(self):
        assert TraceRecord(AccessKind.STORE, 0x10).is_write
        assert TraceRecord(AccessKind.L2_WRITE, 0x10).is_write
        assert not TraceRecord(AccessKind.LOAD, 0x10).is_write
        assert not TraceRecord(AccessKind.IFETCH, 0x10).is_write

    def test_rejects_negative_address(self):
        with pytest.raises(TraceError):
            TraceRecord(AccessKind.LOAD, -1)


class TestTraceContainer:
    @pytest.fixture
    def trace(self):
        trace = Trace(name="unit")
        trace.extend(
            [
                TraceRecord(AccessKind.LOAD, 0x0),
                TraceRecord(AccessKind.STORE, 0x40),
                TraceRecord(AccessKind.LOAD, 0x80),
                TraceRecord(AccessKind.LOAD, 0x0),
            ]
        )
        return trace

    def test_len_and_iteration(self, trace):
        assert len(trace) == 4
        assert sum(1 for _ in trace) == 4
        assert trace[1].kind is AccessKind.STORE

    def test_read_write_counts(self, trace):
        assert trace.read_count == 3
        assert trace.write_count == 1
        assert trace.read_fraction == pytest.approx(0.75)

    def test_unique_blocks_and_footprint(self, trace):
        assert trace.unique_blocks(block_size=64) == 3
        assert trace.footprint_bytes(block_size=64) == 192

    def test_unique_blocks_rejects_bad_block_size(self, trace):
        with pytest.raises(TraceError):
            trace.unique_blocks(block_size=0)

    def test_empty_trace_fractions(self):
        assert Trace(name="empty").read_fraction == 0.0

    def test_counts_maintained_incrementally(self, trace):
        """append/extend keep the O(1) counters in sync with the records."""
        trace.append(TraceRecord(AccessKind.L2_WRITE, 0xC0))
        assert trace.write_count == 2
        assert trace.read_count == 3
        trace.extend(
            [
                TraceRecord(AccessKind.L2_READ, 0x100),
                TraceRecord(AccessKind.STORE, 0x140),
            ]
        )
        assert trace.write_count == 3
        assert trace.read_count == 4
        # The counters always agree with a full rescan.
        assert trace.write_count == sum(1 for r in trace if r.is_write)
        assert trace.read_count == sum(1 for r in trace if not r.is_write)

    def test_counts_for_records_passed_at_construction(self):
        trace = Trace(
            name="init",
            records=[
                TraceRecord(AccessKind.STORE, 0x0),
                TraceRecord(AccessKind.LOAD, 0x40),
            ],
        )
        assert trace.write_count == 1
        assert trace.read_count == 1

    def test_extend_accepts_generators(self):
        trace = Trace(name="gen")
        trace.extend(TraceRecord(AccessKind.L2_WRITE, a) for a in (0x0, 0x40))
        assert len(trace) == 2
        assert trace.write_count == 2


class TestDecodedMemo:
    def test_decoded_arrays_are_read_only(self):
        trace = Trace(name="ro", records=[TraceRecord(AccessKind.L2_READ, 0x40)])
        kinds, addresses = trace.decoded()
        with pytest.raises(ValueError):
            kinds[0] = 0
        with pytest.raises(ValueError):
            addresses[0] = 0

    def test_decoded_is_memoised(self):
        trace = Trace(name="memo", records=[TraceRecord(AccessKind.L2_READ, 0x40)])
        first = trace.decoded()
        second = trace.decoded()
        assert first[0] is second[0]
        assert first[1] is second[1]

    def test_append_invalidates_memo(self):
        trace = Trace(name="grow", records=[TraceRecord(AccessKind.L2_READ, 0x40)])
        trace.decoded()
        trace.append(TraceRecord(AccessKind.L2_WRITE, 0x80))
        kinds, addresses = trace.decoded()
        assert len(kinds) == 2
        assert addresses[1] == 0x80

    def test_equal_length_mutation_invalidates_memo(self):
        """Pop-then-append through the API must not replay stale arrays."""
        trace = Trace(name="swap")
        trace.extend(
            [
                TraceRecord(AccessKind.L2_READ, 0x40),
                TraceRecord(AccessKind.L2_READ, 0x80),
            ]
        )
        stale_kinds, stale_addresses = trace.decoded()
        trace.records.pop()
        trace.append(TraceRecord(AccessKind.L2_WRITE, 0xC0))
        kinds, addresses = trace.decoded()
        assert len(kinds) == len(stale_kinds)  # same length, new content
        assert addresses[1] == 0xC0
        assert kinds[1] != stale_kinds[1]

    def test_extend_bumps_version_even_after_external_pop(self):
        trace = Trace(name="swap2")
        trace.extend([TraceRecord(AccessKind.L2_READ, 0x40)])
        trace.decoded()
        trace.records.pop(0)
        trace.extend([TraceRecord(AccessKind.L2_WRITE, 0x100)])
        kinds, addresses = trace.decoded()
        assert np.array_equal(addresses, [0x100])
        assert kinds[0] == 4  # KIND_ORDER index of L2_WRITE


class TestTraceIO:
    def test_save_and_load_roundtrip(self, tmp_path):
        trace = Trace(name="io")
        trace.extend(
            [
                TraceRecord(AccessKind.L2_READ, 0x1000),
                TraceRecord(AccessKind.L2_WRITE, 0x2040),
                TraceRecord(AccessKind.IFETCH, 0x3FFF),
            ]
        )
        path = tmp_path / "trace.txt"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "trace"
        assert len(loaded) == 3
        assert loaded[0].kind is AccessKind.L2_READ
        assert loaded[1].address == 0x2040

    def test_load_with_explicit_name(self, tmp_path):
        trace = Trace(name="x", records=[TraceRecord(AccessKind.LOAD, 0)])
        path = tmp_path / "t.txt"
        trace.save(path)
        assert Trace.load(path, name="renamed").name == "renamed"

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("L 0x10 extra\n")
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Z 0x10\n")
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_load_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# header\n\nL 0x40\n")
        assert len(Trace.load(path)) == 1

    def test_roundtrip_preserves_every_record_and_counters(self, tmp_path):
        trace = Trace(name="full")
        trace.extend(
            TraceRecord(kind, address)
            for address, kind in enumerate(
                [
                    AccessKind.IFETCH,
                    AccessKind.LOAD,
                    AccessKind.STORE,
                    AccessKind.L2_READ,
                    AccessKind.L2_WRITE,
                ]
            )
        )
        path = tmp_path / "full.txt"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.records == trace.records
        assert loaded.read_count == trace.read_count
        assert loaded.write_count == trace.write_count

    def test_load_rejects_non_hex_address(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("L zzzz\n")
        with pytest.raises(TraceError, match="bad.txt:1"):
            Trace.load(path)

    def test_load_rejects_missing_address_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("L\n")
        with pytest.raises(TraceError, match="expected '<kind> <address>'"):
            Trace.load(path)

    def test_load_negative_address_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("L 0x10\nL -0x10\n")
        with pytest.raises(TraceError, match="bad.txt:2.*non-negative"):
            Trace.load(path)

    def test_load_address_beyond_int64_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("L 0x10\nL 0x8000000000000000\n")
        with pytest.raises(TraceError, match="bad.txt:2.*64-bit"):
            Trace.load(path)

    def test_load_non_utf8_bytes_names_path(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"L 0x10\n\xff\xfe 0x20\n")
        with pytest.raises(TraceError, match="bad.txt: trace file is not UTF-8"):
            Trace.load(path)

    def test_load_directory_names_path(self, tmp_path):
        with pytest.raises(TraceError, match=f"{re.escape(str(tmp_path))}: cannot read trace file"):
            Trace.load(tmp_path)

    def test_load_missing_file_names_path(self, tmp_path):
        with pytest.raises(TraceError, match="missing.txt: cannot read trace file"):
            Trace.load(tmp_path / "missing.txt")

    def test_save_creates_parent_directories(self, tmp_path):
        trace = Trace(name="deep", records=[TraceRecord(AccessKind.L2_READ, 0x40)])
        path = tmp_path / "results" / "traces" / "deep.txt"
        trace.save(path)
        assert Trace.load(path).records == trace.records


class TestContentHash:
    def records(self):
        return [
            TraceRecord(AccessKind.LOAD, 0x0),
            TraceRecord(AccessKind.STORE, 0x40),
            TraceRecord(AccessKind.LOAD, 0x80),
        ]

    def test_equal_content_equal_hash(self):
        a = Trace(name="a", records=self.records())
        b = Trace(name="completely-different-name")
        b.extend(self.records())
        # Identity is the content (kinds + addresses), not the name or the
        # construction path.
        assert a.content_hash() == b.content_hash()

    def test_hash_spans_kinds_and_addresses(self):
        base = Trace(name="t", records=self.records())
        kind_flip = Trace(
            name="t",
            records=[
                TraceRecord(AccessKind.STORE, 0x0),
                TraceRecord(AccessKind.STORE, 0x40),
                TraceRecord(AccessKind.LOAD, 0x80),
            ],
        )
        address_flip = Trace(
            name="t",
            records=[
                TraceRecord(AccessKind.LOAD, 0x40),
                TraceRecord(AccessKind.STORE, 0x40),
                TraceRecord(AccessKind.LOAD, 0x80),
            ],
        )
        assert base.content_hash() != kind_flip.content_hash()
        assert base.content_hash() != address_flip.content_hash()

    def test_append_invalidates_memo(self):
        trace = Trace(name="t", records=self.records())
        before = trace.content_hash()
        trace.append(TraceRecord(AccessKind.L2_WRITE, 0xC0))
        after = trace.content_hash()
        assert before != after
        fresh = Trace(name="t", records=list(trace.records))
        assert after == fresh.content_hash()

    def test_agrees_with_decoded_memo_key(self):
        """content_hash and decoded() share one identity (mutation version)."""
        trace = Trace(name="t", records=self.records())
        kinds_before, _ = trace.decoded()
        hash_before = trace.content_hash()
        trace.extend(self.records())
        kinds_after, _ = trace.decoded()
        assert len(kinds_after) == 2 * len(kinds_before)
        assert trace.content_hash() != hash_before


def _record_trace(kinds, addresses, name="cols") -> Trace:
    return Trace(
        name=name,
        records=[TraceRecord(KIND_ORDER[k], a) for k, a in zip(kinds, addresses)],
    )


class TestFromColumns:
    KINDS = [0, 1, 2, 3, 4, 3, 1]
    ADDRESSES = [0x0, 0x40, 0x80, 0x1000, 0x1040, 0x0, 0x7FFF_FFFF_FFC0]

    @pytest.fixture
    def pair(self):
        columns = Trace.from_columns(
            "cols",
            np.array(self.KINDS, dtype=np.int8),
            np.array(self.ADDRESSES, dtype=np.int64),
        )
        return columns, _record_trace(self.KINDS, self.ADDRESSES)

    def test_matches_record_built_trace(self, pair):
        columns, records = pair
        assert len(columns) == len(records) == len(self.KINDS)
        assert columns.read_count == records.read_count
        assert columns.write_count == records.write_count == 2
        assert columns.read_fraction == records.read_fraction
        assert columns.content_hash() == records.content_hash()
        for mine, theirs in zip(columns.decoded(), records.decoded()):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
        assert columns.unique_blocks(64) == records.unique_blocks(64)
        assert columns.records == records.records
        assert list(columns) == list(records)
        assert columns[3] == records[3]
        assert columns == records

    def test_records_are_built_lazily(self, pair):
        columns, _ = pair
        columns.decoded()
        columns.content_hash()
        assert columns.read_count == 5
        assert columns._records is None
        assert columns[0] == TraceRecord(AccessKind.IFETCH, 0x0)
        assert columns._records is not None

    def test_text_roundtrip(self, pair, tmp_path):
        columns, records = pair
        columns.save(tmp_path / "cols.txt")
        records.save(tmp_path / "records.txt")
        assert (tmp_path / "cols.txt").read_text() == (
            tmp_path / "records.txt"
        ).read_text()
        loaded = Trace.load(tmp_path / "cols.txt", name="cols")
        assert loaded == columns
        assert loaded.content_hash() == columns.content_hash()

    def test_binary_roundtrip(self, pair, tmp_path):
        from repro.workloads import read_trace

        columns, records = pair
        columns.save_binary(tmp_path / "cols.bin", chunk_accesses=3)
        records.save_binary(tmp_path / "records.bin", chunk_accesses=3)
        assert (tmp_path / "cols.bin").read_bytes() == (
            tmp_path / "records.bin"
        ).read_bytes()
        loaded = read_trace(tmp_path / "cols.bin")
        assert loaded == columns
        assert loaded.write_count == columns.write_count

    @pytest.mark.parametrize("mutate", ["append", "extend"])
    def test_mutation_invalidates_both_memos(self, pair, mutate):
        columns, records = pair
        kinds_before, _ = columns.decoded()
        hash_before = columns.content_hash()
        added = TraceRecord(AccessKind.L2_WRITE, 0x2000)
        for trace in (columns, records):
            if mutate == "append":
                trace.append(added)
            else:
                trace.extend([added])
        kinds, addresses = columns.decoded()
        assert len(kinds) == len(kinds_before) + 1
        assert addresses[-1] == 0x2000
        assert columns.content_hash() != hash_before
        assert columns.content_hash() == records.content_hash()
        assert columns.write_count == records.write_count == 3

    def test_decoded_arrays_are_read_only_copies(self):
        kinds = np.array([3, 4], dtype=np.int8)
        addresses = np.array([0x40, 0x80], dtype=np.int64)
        trace = Trace.from_columns("ro", kinds, addresses)
        decoded_kinds, decoded_addresses = trace.decoded()
        with pytest.raises(ValueError):
            decoded_kinds[0] = 0
        with pytest.raises(ValueError):
            decoded_addresses[0] = 0
        # The caller's arrays stay writable and are not aliased.
        addresses[0] = 0xC0
        assert decoded_addresses[0] == 0x40

    def test_accepts_sequences_and_other_integer_dtypes(self):
        trace = Trace.from_columns(
            "seq", np.array([3, 4], dtype=np.uint8), [0x40, 0x80]
        )
        assert trace.decoded()[0].dtype == np.int8
        assert trace.decoded()[1].dtype == np.int64
        assert trace.records == [
            TraceRecord(AccessKind.L2_READ, 0x40),
            TraceRecord(AccessKind.L2_WRITE, 0x80),
        ]

    def test_empty_columns(self):
        trace = Trace.from_columns("empty", [], [])
        assert len(trace) == 0
        assert trace.read_fraction == 0.0
        assert trace.records == []
        assert trace.content_hash() == Trace(name="empty").content_hash()

    @pytest.mark.parametrize("kind", [-1, len(KIND_ORDER), 255])
    def test_rejects_out_of_range_kind(self, kind):
        dtype = np.uint8 if kind == 255 else np.int16
        with pytest.raises(TraceError, match="KIND_ORDER"):
            Trace.from_columns("bad", np.array([3, kind], dtype=dtype), [0, 64])

    def test_rejects_negative_address(self):
        with pytest.raises(TraceError, match="non-negative"):
            Trace.from_columns("bad", [3, 3], np.array([0, -64], dtype=np.int64))

    def test_rejects_address_beyond_int64(self):
        with pytest.raises(TraceError, match="64-bit"):
            Trace.from_columns("bad", [3], np.array([1 << 63], dtype=np.uint64))

    @pytest.mark.parametrize(
        "kinds, addresses, message",
        [
            ([3, 3], [0], "differ in length"),
            ([[3]], [0], "one-dimensional"),
            ([3.0], [0], "integers"),
            ([3], [0.5], "integers"),
        ],
    )
    def test_rejects_malformed_columns(self, kinds, addresses, message):
        with pytest.raises(TraceError, match=message):
            Trace.from_columns("bad", kinds, addresses)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(KIND_ORDER) - 1), st.integers(0, (1 << 63) - 1)
            ),
            max_size=40,
        )
    )
    def test_property_matches_record_built_trace(self, pairs):
        kinds = [k for k, _ in pairs]
        addresses = [a for _, a in pairs]
        columns = Trace.from_columns(
            "p", np.array(kinds, dtype=np.int8), np.array(addresses, dtype=np.int64)
        )
        records = _record_trace(kinds, addresses, name="p")
        assert len(columns) == len(records)
        assert columns.write_count == records.write_count
        assert columns.content_hash() == records.content_hash()
        assert columns.unique_blocks(64) == records.unique_blocks(64)
        assert columns.records == records.records
