"""Tests for the JSONL result store: round-trips, conflicts, durability."""

import hashlib
import json

import pytest

from campaign_test_utils import fast_settings
from repro.campaign import (
    JobSpec,
    ResultStore,
    comparison_from_dict,
    comparison_to_dict,
)
from repro.errors import CampaignError
from repro.sim import SchemeRunResult, WorkloadComparison


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
        extra={"note": 1.0},
    )


def make_comparison(expected_failures: float = 1e-6) -> WorkloadComparison:
    return WorkloadComparison(
        workload="gcc",
        baseline=make_result("conventional", expected_failures=expected_failures * 10),
        alternatives=(make_result("reap", expected_failures=expected_failures),),
    )


def make_job(**overrides) -> JobSpec:
    params = dict(workload="gcc", settings=fast_settings())
    params.update(overrides)
    return JobSpec(**params)


class TestSerialisation:
    def test_comparison_roundtrip_is_exact(self):
        comparison = make_comparison()
        clone = comparison_from_dict(comparison_to_dict(comparison))
        assert clone == comparison
        assert clone.baseline.extra == {"note": 1.0}

    def test_store_and_export_share_one_serialiser(self):
        from repro.analysis import export
        from repro.campaign import store
        from repro.sim import results

        assert store.run_result_to_dict is results.run_result_to_dict
        assert store.comparison_to_dict is results.comparison_to_dict
        assert comparison_to_dict is results.comparison_to_dict
        assert "_result_to_dict" not in vars(export)

    def test_canonical_payload_bytes_are_pinned(self):
        """Store lines hash this payload: its canonical bytes must not move."""
        from repro.campaign.hashing import canonical_json

        payload = canonical_json(comparison_to_dict(make_comparison()))
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == (
            "1ad8b4f9cfa28fe8c8870d43eec375e005222d286805809a77f4dc30321dae02"
        )

    def test_malformed_payload_raises(self):
        with pytest.raises(CampaignError):
            comparison_from_dict({"workload": "gcc"})


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        job = make_job()
        assert store.put(job, make_comparison()) is True
        assert job.key in store
        assert len(store) == 1
        assert store.get(job.key) == make_comparison()
        assert store.job(job.key) == job

    def test_get_missing_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.get("0" * 64) is None
        assert store.entry_line("0" * 64) is None

    def test_identical_reput_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        job = make_job()
        store.put(job, make_comparison())
        assert store.put(job, make_comparison()) is False
        assert len(store) == 1
        # Only one line on disk.
        assert store.path.read_text().count("\n") == 1

    def test_conflicting_reput_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        job = make_job()
        store.put(job, make_comparison(expected_failures=1e-6))
        with pytest.raises(CampaignError, match="refusing to overwrite"):
            store.put(job, make_comparison(expected_failures=2e-6))

    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "store.jsonl"
        job = make_job()
        ResultStore(path).put(job, make_comparison())
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.get(job.key) == make_comparison()

    def test_parent_directories_created(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nested" / "store.jsonl")
        store.put(make_job(), make_comparison())
        assert store.path.exists()

    @pytest.mark.parametrize(
        "line",
        ("not json", "[" * 100_000, '{"key": ' + "1" * 5000 + "}"),
        ids=("non-json", "nested", "bigint"),
    )
    def test_rejects_invalid_json_line(self, tmp_path, line):
        path = tmp_path / "store.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(CampaignError, match="invalid JSON"):
            ResultStore(path)

    def test_rejects_non_utf8_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).put(make_job(), make_comparison())
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        with pytest.raises(CampaignError, match=r"store\.jsonl:2: not UTF-8"):
            ResultStore(path)

    def test_rejects_record_without_key(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"schema": 1}\n')
        with pytest.raises(CampaignError, match="no 'key'"):
            ResultStore(path)

    def test_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"key": "abc", "schema": 999}\n')
        with pytest.raises(CampaignError, match="schema"):
            ResultStore(path)

    def test_compact_sorts_entries_by_key(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        jobs = [make_job(workload=w) for w in ("gcc", "mcf", "namd")]
        for job in jobs:
            store.put(job, make_comparison())
        store.compact()
        keys_on_disk = [
            json.loads(line)["key"] for line in path.read_text().splitlines()
        ]
        assert keys_on_disk == sorted(j.key for j in jobs)
        # Contents survive the rewrite.
        assert ResultStore(path).get(jobs[0].key) == make_comparison()

    def test_entry_lines_are_canonical(self, tmp_path):
        """The stored line equals the canonical serialisation of its record,
        so byte-level equality across runs reduces to record equality."""
        store = ResultStore(tmp_path / "store.jsonl")
        job = make_job()
        store.put(job, make_comparison())
        line = store.entry_line(job.key)
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
