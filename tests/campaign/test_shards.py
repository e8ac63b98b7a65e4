"""Tests for the sharded result store, failure recovery, merge and diff."""

import json
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from campaign_test_utils import fast_settings
from repro.campaign import (
    JobSpec,
    ResultStore,
    ShardedResultStore,
    canonical_json,
    diff_stores,
    merge_stores,
    open_store,
    render_store_diff,
)
from repro.campaign import store as store_module
from repro.campaign.provenance import ProvenanceWarning
from repro.errors import CampaignError
from repro.sim import SchemeRunResult, WorkloadComparison

WORKLOADS = ("perlbench", "gcc", "mcf", "namd", "xalancbmk", "soplex")


def make_result(scheme: str, expected_failures: float = 1e-6) -> SchemeRunResult:
    return SchemeRunResult(
        workload="gcc",
        scheme=scheme,
        num_accesses=1000,
        simulated_time_s=1e-5,
        expected_failures=expected_failures,
        checked_reads=700,
        concealed_reads=300,
        max_accumulated_reads=9,
        mean_accumulated_reads=1.5,
        dynamic_energy_pj=1234.5,
        ecc_energy_pj=56.7,
        leakage_energy_pj=89.0,
        hit_rate=0.8,
        read_fraction=0.7,
        read_hit_latency_ns=3.2,
    )


def make_comparison(expected_failures: float = 1e-6) -> WorkloadComparison:
    return WorkloadComparison(
        workload="gcc",
        baseline=make_result("conventional", expected_failures=expected_failures * 10),
        alternatives=(make_result("reap", expected_failures=expected_failures),),
    )


def make_job(workload: str = "gcc", seed: int = 1) -> JobSpec:
    return JobSpec(workload=workload, settings=fast_settings(seed=seed))


def fill_store(store, workloads=WORKLOADS, seed: int = 1):
    jobs = [make_job(w, seed=seed) for w in workloads]
    for job in jobs:
        store.put(job, make_comparison())
    return jobs


class TestShardedStore:
    def test_roundtrip_and_layout(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shard_width=1)
        jobs = fill_store(store)
        assert len(store) == len(jobs)
        for job in jobs:
            assert job.key in store
            assert store.get(job.key) == make_comparison()
            assert store.job(job.key) == job
            # The entry lives in the shard named after its key prefix.
            shard = tmp_path / "store" / store.shard_name(job.key)
            assert shard.exists()
            assert job.key[:1] in shard.name
            assert job.key in shard.read_text()

    def test_reload_from_disk(self, tmp_path):
        jobs = fill_store(ShardedResultStore(tmp_path / "store"))
        reloaded = ShardedResultStore(tmp_path / "store")
        assert len(reloaded) == len(jobs)
        assert reloaded.get(jobs[0].key) == make_comparison()

    def test_same_interface_and_bytes_as_plain_store(self, tmp_path):
        plain = ResultStore(tmp_path / "plain.jsonl")
        sharded = ShardedResultStore(tmp_path / "sharded")
        jobs = fill_store(plain)
        fill_store(sharded)
        assert sorted(plain.keys()) == sorted(sharded.keys())
        for job in jobs:
            assert plain.entry_line(job.key) == sharded.entry_line(job.key)

    def test_conflicting_reput_raises(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store")
        job = make_job()
        store.put(job, make_comparison(expected_failures=1e-6))
        with pytest.raises(CampaignError, match="refusing to overwrite"):
            store.put(job, make_comparison(expected_failures=2e-6))

    def test_identical_reput_is_idempotent(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store")
        job = make_job()
        assert store.put(job, make_comparison()) is True
        assert store.put(job, make_comparison()) is False
        assert len(store) == 1

    def test_width_mismatch_on_reopen_raises(self, tmp_path):
        ShardedResultStore(tmp_path / "store", shard_width=3)
        with pytest.raises(CampaignError, match="shard_width"):
            ShardedResultStore(tmp_path / "store", shard_width=2)
        # Reopening without an explicit width uses the manifest's.
        assert ShardedResultStore(tmp_path / "store").shard_width == 3

    def test_missing_manifest_with_shards_raises(self, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir()
        (directory / "shard-ab.jsonl").write_text("")
        with pytest.raises(CampaignError, match="manifest"):
            ShardedResultStore(directory)

    @pytest.mark.parametrize(
        "content",
        (b"\xff\xfe\n", b"[" * 100_000, b'{"schema": ' + b"1" * 5000 + b"}"),
        ids=("non-utf8", "nested", "bigint"),
    )
    def test_undecodable_manifest_raises(self, tmp_path, content):
        ShardedResultStore(tmp_path / "store")
        (tmp_path / "store" / "store.json").write_bytes(content)
        with pytest.raises(CampaignError, match="unreadable store manifest"):
            ShardedResultStore(tmp_path / "store")

    def test_file_path_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("")
        with pytest.raises(CampaignError, match="not a directory"):
            ShardedResultStore(path)

    def test_compact_makes_equal_stores_byte_identical(self, tmp_path):
        store_a = ShardedResultStore(tmp_path / "a", shard_width=1)
        store_b = ShardedResultStore(tmp_path / "b", shard_width=1)
        fill_store(store_a, WORKLOADS)
        fill_store(store_b, tuple(reversed(WORKLOADS)))
        store_a.compact()
        store_b.compact()
        files_a = {p.name: p.read_bytes() for p in store_a.shard_paths()}
        files_b = {p.name: p.read_bytes() for p in store_b.shard_paths()}
        assert files_a == files_b
        assert len(files_a) >= 2

    def test_refresh_sees_other_writers(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store")
        fill_store(store, WORKLOADS[:2])
        other = ShardedResultStore(tmp_path / "store")
        fill_store(other, WORKLOADS[2:])
        assert len(store) == 2
        assert store.refresh() == len(WORKLOADS) - 2
        assert sorted(store.keys()) == sorted(other.keys())


class TestFailureRecovery:
    def test_truncated_tail_is_recovered_with_warning(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shard_width=1)
        jobs = fill_store(store)
        shard = store.shard_paths()[0]
        original = shard.read_text()
        # A writer killed mid-append leaves a partial line with no newline.
        shard.write_text(original + '{"key": "dead', encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="truncated final record"):
            recovered = ShardedResultStore(tmp_path / "store")
        assert sorted(recovered.keys()) == sorted(j.key for j in jobs)
        # The file was repaired in place: clean reload, no warning.
        assert shard.read_text() == original
        again = ShardedResultStore(tmp_path / "store")
        assert len(again) == len(jobs)

    def test_append_after_recovery_is_clean(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shard_width=1)
        job = make_job("gcc")
        store.put(job, make_comparison())
        shard = store.shard_paths()[0]
        shard.write_text(shard.read_text() + '{"half', encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            recovered = ShardedResultStore(tmp_path / "store")
        other = make_job("mcf")
        # Force both entries into the damaged shard to prove appends stay
        # line-aligned after the repair.
        recovered.put_line(
            job.key[:1] + other.key[1:],
            canonical_json(
                json.loads(recovered.entry_line(job.key))
                | {"key": job.key[:1] + other.key[1:]}
            ),
        )
        reloaded = ShardedResultStore(tmp_path / "store")
        assert len(reloaded) == 2

    @pytest.mark.parametrize(
        "line",
        ("not json at all", "[" * 100_000, '{"key": ' + "1" * 5000 + "}"),
        ids=("non-json", "nested", "bigint"),
    )
    def test_complete_corrupt_line_raises(self, tmp_path, line):
        store = ShardedResultStore(tmp_path / "store", shard_width=1)
        fill_store(store, WORKLOADS[:1])
        shard = store.shard_paths()[0]
        content = shard.read_text()
        shard.write_text(line + "\n" + content, encoding="utf-8")
        with pytest.raises(CampaignError, match="invalid JSON"):
            ShardedResultStore(tmp_path / "store")

    def test_non_utf8_shard_line_raises(self, tmp_path):
        ShardedResultStore(tmp_path / "store", shard_width=2)
        (tmp_path / "store" / "shard-ab.jsonl").write_bytes(b"\xff\xfe\n")
        with pytest.raises(CampaignError, match=r"shard-ab\.jsonl:1: not UTF-8"):
            ShardedResultStore(tmp_path / "store")

    def test_final_line_without_newline_but_valid_is_repaired(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        job = make_job()
        store.put(job, make_comparison())
        path = tmp_path / "store.jsonl"
        path.write_text(path.read_text().rstrip("\n"), encoding="utf-8")
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert path.read_text().endswith("\n")

    @pytest.mark.parametrize(
        "tail",
        ('{"tail', "[" * 100_000, '{"key": ' + "1" * 5000 + "}"),
        ids=("cut", "nested", "bigint"),
    )
    def test_plain_store_truncated_tail_recovers_too(self, tmp_path, tail):
        store = ResultStore(tmp_path / "store.jsonl")
        job = make_job()
        store.put(job, make_comparison())
        path = tmp_path / "store.jsonl"
        path.write_text(path.read_text() + tail, encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="truncated"):
            recovered = ResultStore(path)
        assert len(recovered) == 1


def _write_entries(args):
    directory, workloads, seed = args
    store = ShardedResultStore(directory)
    fill_store(store, workloads, seed=seed)
    return len(store)


class TestConcurrentWriters:
    def test_interleaved_processes_produce_a_clean_store(self, tmp_path):
        """Several processes appending to one sharded store at once: every
        line stays whole (single O_APPEND writes) and every entry
        survives."""
        directory = tmp_path / "store"
        ShardedResultStore(directory, shard_width=1)  # create the manifest
        groups = [
            (str(directory), WORKLOADS, seed) for seed in (1, 2, 3, 4)
        ]
        with multiprocessing.get_context("fork").Pool(4) as pool:
            pool.map(_write_entries, groups)
        store = ShardedResultStore(directory)
        assert len(store) == len(WORKLOADS) * len(groups)
        for key in store.keys():
            record = store.record(key)
            assert record["key"] == key
            assert store.entry_line(key) == canonical_json(record)


def gate_os_replace(monkeypatch, parties: int = 2) -> None:
    """Hold every ``os.replace`` until ``parties`` threads are at one, so
    each thread has written its temporary file before any rename lands."""
    barrier = threading.Barrier(parties, timeout=10.0)
    real_replace = os.replace

    def gated(src, dst):
        barrier.wait()
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", gated)


def run_together(*calls):
    with ThreadPoolExecutor(len(calls)) as pool:
        return [future.result() for future in [pool.submit(c) for c in calls]]


STORE_KINDS = pytest.mark.parametrize(
    "open_store_at",
    (
        lambda root: ResultStore(root / "store.jsonl"),
        lambda root: ShardedResultStore(root / "store"),
    ),
    ids=("plain", "sharded"),
)


class TestConcurrentPublishers:
    def test_two_openers_of_a_fresh_store_both_write_the_manifest(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "store"
        gate_os_replace(monkeypatch)
        stores = run_together(
            lambda: ShardedResultStore(directory),
            lambda: ShardedResultStore(directory),
        )
        assert [s.shard_width for s in stores] == [2, 2]
        assert sorted(p.name for p in directory.iterdir()) == ["store.json"]
        assert ShardedResultStore(directory).shard_width == 2

    @STORE_KINDS
    def test_two_compactions_at_once_both_publish(
        self, tmp_path, monkeypatch, open_store_at
    ):
        fill_store(open_store_at(tmp_path), WORKLOADS[:1])
        first, second = open_store_at(tmp_path), open_store_at(tmp_path)
        expected = sorted(p.name for p in tmp_path.rglob("*"))
        # Compactions of one file take turns on its append lock, so their
        # renames cannot be held together; count them instead.
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (replaced.append(dst), real_replace(src, dst))
        )
        run_together(first.compact, second.compact)
        assert len(replaced) == 2
        assert sorted(p.name for p in tmp_path.rglob("*")) == expected
        assert len(open_store_at(tmp_path)) == 1

    @STORE_KINDS
    def test_compaction_keeps_another_writers_entries(self, tmp_path, open_store_at):
        first, second = open_store_at(tmp_path), open_store_at(tmp_path)
        first.put(make_job("gcc"), make_comparison())
        second.put(make_job("mcf"), make_comparison())
        second.compact()
        assert len(second) == 2
        assert len(open_store_at(tmp_path)) == 2

    @STORE_KINDS
    def test_append_reopens_a_file_compacted_while_it_waited(
        self, tmp_path, monkeypatch, open_store_at
    ):
        writer, compactor = open_store_at(tmp_path), open_store_at(tmp_path)
        held = make_job("gcc")
        compactor.put(held, make_comparison())
        # A second job whose entry goes to the same file as the first.
        late = next(
            job
            for job in (make_job("mcf", seed=seed) for seed in range(1, 10_000))
            if writer._shard_path(job.key) == writer._shard_path(held.key)
        )
        real_lock = store_module._file_lock
        pending = [compactor.compact]

        @contextmanager
        def compact_while_waiting(fd):
            if pending:  # the compaction replaces the file before the append locks it
                pending.pop()()
            with real_lock(fd):
                yield

        monkeypatch.setattr(store_module, "_file_lock", compact_while_waiting)
        writer.put(late, make_comparison())
        assert not pending
        assert sorted(open_store_at(tmp_path).keys()) == sorted((held.key, late.key))

    @STORE_KINDS
    def test_appends_during_repeated_compactions_all_survive(
        self, tmp_path, open_store_at
    ):
        open_store_at(tmp_path)  # create the store (and a sharded manifest)
        writers = [open_store_at(tmp_path) for _ in range(6)]
        compactor = open_store_at(tmp_path)
        done = threading.Event()

        def write(index):
            for workload in WORKLOADS[:4]:
                job = make_job(workload, seed=index + 1)
                writers[index].put(job, make_comparison())

        def compact():
            while not done.is_set():
                compactor.compact()

        with ThreadPoolExecutor(len(writers) + 1) as pool:
            compacting = pool.submit(compact)
            for future in [pool.submit(write, i) for i in range(len(writers))]:
                future.result(timeout=60)
            done.set()
            compacting.result(timeout=60)
        compactor.compact()
        assert len(compactor) == len(open_store_at(tmp_path)) == 6 * 4


class TestMerge:
    def test_merge_disjoint_stores(self, tmp_path):
        store_a = ShardedResultStore(tmp_path / "a")
        store_b = ShardedResultStore(tmp_path / "b")
        jobs_a = fill_store(store_a, WORKLOADS[:3])
        jobs_b = fill_store(store_b, WORKLOADS[3:])
        report = merge_stores(tmp_path / "merged", [store_a, store_b])
        assert report.added == len(jobs_a) + len(jobs_b)
        assert report.duplicates == 0
        merged = open_store(tmp_path / "merged")
        assert sorted(merged.keys()) == sorted(
            j.key for j in jobs_a + jobs_b
        )
        # Entries are byte-preserved.
        for job in jobs_a:
            assert merged.entry_line(job.key) == store_a.entry_line(job.key)

    def test_merge_overlap_deduplicates(self, tmp_path):
        store_a = ShardedResultStore(tmp_path / "a")
        store_b = ShardedResultStore(tmp_path / "b")
        fill_store(store_a, WORKLOADS[:4])
        fill_store(store_b, WORKLOADS[2:])
        report = merge_stores(tmp_path / "merged", [store_a, store_b])
        assert report.added == len(WORKLOADS)
        assert report.duplicates == 2
        assert report.total == len(WORKLOADS)

    def test_merge_conflict_raises_not_picks(self, tmp_path):
        """Two stores holding different payloads for one key must abort the
        merge — never silently pick a side."""
        store_a = ResultStore(tmp_path / "a.jsonl")
        store_b = ResultStore(tmp_path / "b.jsonl")
        job = make_job()
        store_a.put(job, make_comparison(expected_failures=1e-6))
        store_b.put(job, make_comparison(expected_failures=2e-6))
        with pytest.raises(CampaignError, match="merge conflict"):
            merge_stores(tmp_path / "merged", [store_a, store_b])
        # Entries merged before the conflict stay; the conflicting one is
        # whatever the first source held (destination is not corrupted).
        merged = open_store(tmp_path / "merged")
        assert merged.entry_line(job.key) == store_a.entry_line(job.key)

    def test_merge_source_must_exist(self, tmp_path):
        """A typo'd source path fails loudly instead of merging an empty
        store conjured on the spot."""
        store = ResultStore(tmp_path / "a.jsonl")
        fill_store(store, WORKLOADS[:1])
        with pytest.raises(CampaignError, match="no result store"):
            merge_stores(tmp_path / "merged.jsonl", [store, tmp_path / "typo_dir"])
        assert not (tmp_path / "typo_dir").exists()

    def test_merge_into_itself_rejected(self, tmp_path):
        store = ShardedResultStore(tmp_path / "a")
        fill_store(store, WORKLOADS[:1])
        with pytest.raises(CampaignError, match="itself"):
            merge_stores(store, [ShardedResultStore(tmp_path / "a")])

    def test_merge_plain_into_sharded_and_back(self, tmp_path):
        plain = ResultStore(tmp_path / "plain.jsonl")
        jobs = fill_store(plain, WORKLOADS[:3])
        merge_stores(tmp_path / "sharded", [plain])
        merge_stores(tmp_path / "back.jsonl", [tmp_path / "sharded"])
        back = open_store(tmp_path / "back.jsonl")
        assert isinstance(back, ResultStore)
        for job in jobs:
            assert back.entry_line(job.key) == plain.entry_line(job.key)

    def test_mixed_provenance_warns(self, tmp_path):
        store_a = ResultStore(tmp_path / "a.jsonl")
        (job,) = fill_store(store_a, WORKLOADS[:1])
        # Forge a second store whose entry came from another code version.
        record = store_a.record(job.key)
        record["provenance"] = {"version": "0.0.1", "git": "deadbeef0000"}
        other_job = make_job(WORKLOADS[1])
        store_b = ResultStore(tmp_path / "b.jsonl")
        store_b.put_line(other_job.key, canonical_json(record | {"key": other_job.key}))
        with pytest.warns(ProvenanceWarning, match="code versions"):
            merge_stores(tmp_path / "merged.jsonl", [store_a, store_b])


class TestDiff:
    def test_identical_stores_match(self, tmp_path):
        store_a = ShardedResultStore(tmp_path / "a")
        store_b = ShardedResultStore(tmp_path / "b")
        fill_store(store_a)
        fill_store(store_b)
        diff = diff_stores(store_a, store_b)
        assert diff.stores_match
        assert diff.identical == len(WORKLOADS)
        assert "0 changed" in render_store_diff(diff)

    def test_changed_results_report_metric_deltas(self, tmp_path):
        store_a = ResultStore(tmp_path / "a.jsonl")
        store_b = ResultStore(tmp_path / "b.jsonl")
        job = make_job()
        store_a.put(job, make_comparison(expected_failures=1e-6))
        store_b.put(job, make_comparison(expected_failures=4e-6))
        diff = diff_stores(store_a, store_b)
        assert not diff.stores_match
        (entry,) = diff.changed
        assert entry.workload == "gcc"
        assert entry.metrics["reap_expected_failures"] == (1e-6, 4e-6)
        assert "reap_expected_failures" in render_store_diff(diff)

    def test_diff_operands_must_exist(self, tmp_path):
        store = ResultStore(tmp_path / "a.jsonl")
        fill_store(store, WORKLOADS[:1])
        with pytest.raises(CampaignError, match="no result store"):
            diff_stores(store, tmp_path / "missing_dir")
        assert not (tmp_path / "missing_dir").exists()

    def test_disjoint_keys_reported(self, tmp_path):
        store_a = ResultStore(tmp_path / "a.jsonl")
        store_b = ResultStore(tmp_path / "b.jsonl")
        (job_a,) = fill_store(store_a, WORKLOADS[:1])
        (job_b,) = fill_store(store_b, WORKLOADS[1:2])
        diff = diff_stores(store_a, store_b)
        assert diff.only_in_a == (job_a.key,)
        assert diff.only_in_b == (job_b.key,)
        assert not diff.stores_match


class TestProvenance:
    def test_entries_are_stamped(self, tmp_path):
        from repro import __version__

        store = ShardedResultStore(tmp_path / "store")
        (job,) = fill_store(store, WORKLOADS[:1])
        record = store.record(job.key)
        assert record["provenance"]["version"] == __version__

    def test_reput_across_versions_is_idempotent(self, tmp_path):
        """An entry written by another version with the same payload is not a
        conflict — provenance is descriptive, not identity."""
        store = ResultStore(tmp_path / "s.jsonl")
        job = make_job()
        record = {
            "schema": 1,
            "key": job.key,
            "job": job.to_dict(),
            "provenance": {"version": "0.0.1", "git": None},
            "result": json.loads(
                canonical_json(
                    __import__(
                        "repro.campaign.store", fromlist=["comparison_to_dict"]
                    ).comparison_to_dict(make_comparison())
                )
            ),
        }
        store.put_line(job.key, canonical_json(record))
        assert store.put(job, make_comparison()) is False
        # The original (old-version) line is preserved.
        assert store.record(job.key)["provenance"]["version"] == "0.0.1"

    def test_check_provenance_warns_on_mix(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        (job,) = fill_store(store, WORKLOADS[:1])
        forged = store.record(job.key)
        forged["provenance"] = {"version": "9.9.9", "git": None}
        other = make_job(WORKLOADS[1])
        forged["key"] = other.key
        store.put_line(other.key, canonical_json(forged))
        with pytest.warns(ProvenanceWarning):
            store.check_provenance()
