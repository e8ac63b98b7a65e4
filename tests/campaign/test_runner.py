"""Tests for campaign execution: caching, fan-out determinism, delegation."""

import json

import pytest

from campaign_test_utils import fast_settings
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    JobSpec,
    ResultStore,
    canonical_json,
    comparison_to_dict,
    comparisons_at_point,
    figure5_from_store,
    missing_jobs,
    render_campaign_summary,
    run_campaign,
)
from repro.core import build_protected_cache
from repro.errors import CampaignError
from repro.sim import (
    ExperimentRunner,
    WorkloadComparison,
    compare_schemes,
    run_l2_trace,
    sweep,
)
from repro.workloads import generate_l2_trace, get_profile


def small_spec(workloads=("gcc", "mcf"), num_accesses=800, **kwargs):
    return CampaignSpec(
        name="test",
        workloads=workloads,
        base_settings=fast_settings(num_accesses=num_accesses),
        **kwargs,
    )


class TestCampaignRunner:
    def test_runs_all_jobs_without_store(self):
        result = run_campaign(small_spec())
        assert result.executed == 2
        assert result.cached == 0
        assert [c.workload for c in result.comparisons] == ["gcc", "mcf"]

    def test_progress_reports_every_outcome(self):
        outcomes = []
        run_campaign(small_spec(), progress=outcomes.append)
        assert sorted(o.job.workload for o in outcomes) == ["gcc", "mcf"]
        assert all(not o.cached and o.elapsed_s > 0 for o in outcomes)

    def test_rejects_zero_workers(self):
        with pytest.raises(CampaignError):
            CampaignRunner(small_spec(), jobs=0)

    def test_rejects_non_jobspec_items(self):
        with pytest.raises(CampaignError):
            CampaignRunner(["not a job"])

    def test_explicit_job_list(self):
        jobs = [JobSpec(workload="gcc", settings=fast_settings(num_accesses=600))]
        result = run_campaign(jobs)
        assert len(result.outcomes) == 1
        assert result.outcomes[0].job.workload == "gcc"

    def test_results_match_direct_compare_schemes(self):
        """The campaign path must be bit-identical to calling the simulator
        directly with the strided seed."""
        spec = small_spec()
        result = run_campaign(spec)
        for index, outcome in enumerate(result.outcomes):
            direct = compare_schemes(
                outcome.job.workload,
                settings=fast_settings(num_accesses=800, seed=1 + index),
            )
            assert outcome.comparison == direct


class TestStoreIntegration:
    def test_parallel_store_entries_byte_identical_to_serial(self, tmp_path):
        spec = small_spec(workloads=("gcc", "mcf", "namd"))
        serial = ResultStore(tmp_path / "serial.jsonl")
        parallel = ResultStore(tmp_path / "parallel.jsonl")
        run_campaign(spec, store=serial, jobs=1)
        run_campaign(spec, store=parallel, jobs=4)
        assert sorted(serial.keys()) == sorted(parallel.keys())
        for key in serial.keys():
            assert serial.entry_line(key) == parallel.entry_line(key)

    def test_rerun_executes_zero_jobs(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "store.jsonl")
        first = run_campaign(spec, store=store)
        assert first.executed == 2
        assert not missing_jobs(spec, store)
        rerun = run_campaign(spec, store=store, jobs=4)
        assert rerun.executed == 0
        assert rerun.cached == 2
        assert rerun.comparisons == first.comparisons

    def test_partial_store_only_runs_missing_jobs(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        run_campaign(small_spec(workloads=("gcc",)), store=store)
        result = run_campaign(small_spec(workloads=("gcc", "mcf")), store=store)
        assert result.cached == 1
        assert result.executed == 1
        ran = [o.job.workload for o in result.outcomes if not o.cached]
        assert ran == ["mcf"]

    def test_report_helpers_read_back_from_store(self, tmp_path):
        spec = small_spec(sweep=(("p_cell", (1e-8, 1e-7)),))
        store = ResultStore(tmp_path / "store.jsonl")
        result = run_campaign(spec, store=store, jobs=2)
        point = (("p_cell", 1e-7),)
        comparisons = comparisons_at_point(spec, store, point)
        assert [c.workload for c in comparisons] == ["gcc", "mcf"]
        fig5 = figure5_from_store(spec, store, point)
        assert fig5.average_improvement > 1.0
        summary = render_campaign_summary(result)
        assert "gcc" in summary and "p_cell=1e-07" in summary

    def test_comparisons_at_missing_point_raises(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "store.jsonl")
        with pytest.raises(CampaignError, match="missing job"):
            comparisons_at_point(spec, store, ())
        with pytest.raises(CampaignError, match="not part of campaign"):
            comparisons_at_point(spec, store, (("p_cell", 1.0),))


class TestDelegation:
    def test_experiment_runner_unchanged_output_shape(self):
        runner = ExperimentRunner(
            ["gcc", "mcf"], settings=fast_settings(num_accesses=800)
        )
        seen = []
        comparisons = runner.run(progress=seen.append)
        assert [c.workload for c in comparisons] == ["gcc", "mcf"]
        assert sorted(seen) == ["gcc", "mcf"]

    def test_experiment_runner_seed_striding_preserved(self):
        """Delegation must reproduce the historical per-workload seeds."""
        comparisons = ExperimentRunner(
            ["gcc", "mcf"], settings=fast_settings(num_accesses=800)
        ).run()
        direct = compare_schemes(
            "mcf", settings=fast_settings(num_accesses=800, seed=2)
        )
        assert comparisons[1] == direct

    def test_experiment_runner_caches_through_store(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        runner = ExperimentRunner(["gcc"], settings=fast_settings(num_accesses=800))
        first = runner.run(store=store)
        second = runner.run(store=store)
        assert first == second
        assert len(store) == 1

    def test_sweep_returns_values_in_order(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")

        def build(p_cell):
            return fast_settings(num_accesses=700, p_cell=p_cell)

        results = sweep([1e-9, 1e-7], build, workload="gcc", store=store, jobs=2)
        assert [value for value, _ in results] == [1e-9, 1e-7]
        assert results[1][1].baseline.expected_failures > results[0][1].baseline.expected_failures
        # Cached second pass returns identical comparisons.
        again = sweep([1e-9, 1e-7], build, workload="gcc", store=store)
        assert [c for _, c in again] == [c for _, c in results]

    def test_sweep_empty_values(self):
        assert sweep([], lambda v: fast_settings(), workload="gcc") == []

    def test_experiment_runner_accepts_custom_profile_objects(self):
        """Unregistered/modified profile objects run in-process rather than
        being silently replaced by the registry entry of the same name."""
        import dataclasses

        from repro.workloads import get_profile

        base = get_profile("gcc")
        renamed = dataclasses.replace(base, name="my-custom")
        comparisons = ExperimentRunner(
            [renamed], settings=fast_settings(num_accesses=600)
        ).run()
        assert comparisons[0].workload == "my-custom"

        modified = dataclasses.replace(base, write_fraction=0.9)
        (modified_cmp,) = ExperimentRunner(
            [modified], settings=fast_settings(num_accesses=600)
        ).run()
        (registry_cmp,) = ExperimentRunner(
            [base], settings=fast_settings(num_accesses=600)
        ).run()
        assert modified_cmp.baseline.read_fraction != registry_cmp.baseline.read_fraction

    def test_sweep_accepts_custom_profile_objects(self):
        import dataclasses

        from repro.workloads import get_profile

        custom = dataclasses.replace(get_profile("gcc"), name="my-custom")
        results = sweep(
            [1e-8], lambda p: fast_settings(num_accesses=600, p_cell=p), workload=custom
        )
        assert results[0][1].workload == "my-custom"


class TestBackendSwitch:
    def test_serial_and_local_backends_match(self, tmp_path):
        serial = run_campaign(small_spec(), backend="serial")
        local = run_campaign(small_spec(), jobs=2, backend="local")
        assert serial.comparisons == local.comparisons
        assert serial.backend == "serial"
        assert local.backend == "local"
        assert local.workers == 2

    def test_backend_not_part_of_job_identity(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        first = run_campaign(small_spec(), store=store, backend="serial")
        second = run_campaign(small_spec(), store=store, jobs=2, backend="local")
        assert first.executed == 2
        assert second.executed == 0
        assert second.cached == 2

    def test_backend_instance_passthrough(self):
        from repro.campaign import SerialBackend

        result = run_campaign(small_spec(), backend=SerialBackend())
        assert result.backend == "serial"

    def test_run_campaign_accepts_sharded_store_path(self, tmp_path):
        """A non-.jsonl store path opens as a sharded store directory."""
        from repro.campaign.shards import MANIFEST_NAME

        result = run_campaign(small_spec(), store=tmp_path / "store_dir")
        assert result.executed == 2
        assert (tmp_path / "store_dir" / MANIFEST_NAME).exists()
        rerun = run_campaign(small_spec(), store=tmp_path / "store_dir")
        assert rerun.executed == 0
        assert rerun.cached == 2
        assert rerun.comparisons == result.comparisons


class TestFastPathCampaigns:
    def test_parallel_matches_serial(self):
        serial = run_campaign(small_spec())
        parallel = run_campaign(small_spec(), jobs=2)
        assert serial.comparisons == parallel.comparisons

    def test_store_result_bytes_equal_reference_oracle(self, tmp_path):
        """Campaigns always run the fast path, yet the stored ``result`` is
        byte-identical to one built from ``run_l2_trace(engine="reference")``
        runs of the baseline and REAP over the same trace."""
        settings = fast_settings(num_accesses=800)
        job = JobSpec(workload="gcc", settings=settings)
        store_path = tmp_path / "store.jsonl"
        run_campaign([job], store=store_path)

        trace = generate_l2_trace(
            get_profile("gcc"),
            settings.l2_config,
            settings.num_accesses,
            seed=settings.seed,
        )

        def reference_run(scheme):
            cache = build_protected_cache(
                scheme,
                settings.l2_config,
                mtj=settings.mtj,
                p_cell=settings.p_cell,
                data_profile=settings.data_profile(settings.seed),
                seed=settings.seed,
                track_accumulation=settings.track_accumulation,
            )
            return run_l2_trace(cache, trace, engine="reference")

        expected = comparison_to_dict(
            WorkloadComparison(
                workload="gcc",
                baseline=reference_run("conventional"),
                alternatives=(reference_run("reap"),),
            )
        )
        (line,) = store_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(line)["result"] == expected
        assert f'"result":{canonical_json(expected)},' in line

    def test_legacy_engine_and_kernel_fields_in_payload_are_ignored(self):
        """Payloads from older coordinators or checkpoints may carry
        ``"engine"`` and ``"kernel"`` fields; they select nothing and change
        nothing."""
        from repro.campaign.execution import execute_payload, payload_for

        job = small_spec(workloads=("gcc",)).jobs()[0]
        payload = payload_for(job)
        assert payload == {"job": job.to_dict()}
        key, comparison, _ = execute_payload(payload)
        legacy_key, legacy_comparison, _ = execute_payload(
            {**payload, "engine": "reference", "kernel": "loop"}
        )
        assert legacy_key == key == job.key
        assert legacy_comparison == comparison
