"""Tests for campaign/job specifications and content hashing."""

import pytest

from campaign_test_utils import fast_settings
from repro.campaign import CampaignSpec, JobSpec, content_hash
from repro.errors import CampaignError


class TestJobSpec:
    def test_key_is_deterministic_across_instances(self):
        a = JobSpec(workload="gcc", settings=fast_settings())
        b = JobSpec(workload="gcc", settings=fast_settings())
        assert a.key == b.key
        assert len(a.key) == 64  # sha256 hex

    def test_key_is_hashed_once_per_instance(self, monkeypatch):
        import pickle

        from repro.campaign import spec

        calls = []
        real_hash = spec.content_hash
        monkeypatch.setattr(
            spec, "content_hash", lambda payload: calls.append(1) or real_hash(payload)
        )
        job = JobSpec(workload="gcc", settings=fast_settings())
        keys = {job.key for _ in range(4)}
        expected = real_hash({"schema": spec.SCHEMA_VERSION, "job": job.to_dict()})
        assert len(calls) == 1 and keys == {expected}
        # The cached key travels with a pickled job and leaves equality alone.
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job and clone.key == job.key and len(calls) == 1

    def test_key_changes_with_any_identity_field(self):
        base = JobSpec(workload="gcc", settings=fast_settings())
        assert base.key != JobSpec(workload="mcf", settings=fast_settings()).key
        assert base.key != JobSpec(workload="gcc", settings=fast_settings(seed=2)).key
        assert base.key != JobSpec(
            workload="gcc", settings=fast_settings(), alternatives=("serial",)
        ).key
        assert base.key != JobSpec(
            workload="gcc", settings=fast_settings(), point=(("p_cell", 1e-9),)
        ).key

    def test_dict_roundtrip_preserves_key(self):
        job = JobSpec(
            workload="gcc",
            settings=fast_settings(p_cell=3e-8),
            alternatives=("reap", "serial"),
            point=(("p_cell", 3e-8),),
        )
        clone = JobSpec.from_dict(job.to_dict())
        assert clone == job
        assert clone.key == job.key

    def test_rejects_unknown_scheme(self):
        with pytest.raises(CampaignError):
            JobSpec(workload="gcc", settings=fast_settings(), baseline="bogus")

    def test_rejects_empty_alternatives(self):
        with pytest.raises(CampaignError):
            JobSpec(workload="gcc", settings=fast_settings(), alternatives=())

    def test_from_dict_rejects_malformed_point(self):
        payload = JobSpec(workload="gcc", settings=fast_settings()).to_dict()
        payload["point"] = [["p_cell"]]  # missing the value
        with pytest.raises(CampaignError, match="malformed job payload"):
            JobSpec.from_dict(payload)

    def test_rejects_non_scalar_point_value(self):
        with pytest.raises(CampaignError):
            JobSpec(workload="gcc", settings=fast_settings(), point=(("x", [1, 2]),))

    def test_point_label(self):
        job = JobSpec(
            workload="gcc", settings=fast_settings(), point=(("p_cell", 1e-8),)
        )
        assert job.point_label == "p_cell=1e-08"
        assert JobSpec(workload="gcc", settings=fast_settings()).point_label == "-"


class TestCampaignSpec:
    def test_expansion_order_points_outer_workloads_inner(self):
        spec = CampaignSpec(
            name="t",
            workloads=("gcc", "mcf"),
            base_settings=fast_settings(),
            sweep=(("p_cell", (1e-9, 1e-8)),),
        )
        jobs = spec.jobs()
        assert spec.num_jobs == len(jobs) == 4
        assert [(j.workload, j.point) for j in jobs] == [
            ("gcc", (("p_cell", 1e-9),)),
            ("mcf", (("p_cell", 1e-9),)),
            ("gcc", (("p_cell", 1e-8),)),
            ("mcf", (("p_cell", 1e-8),)),
        ]

    def test_sweep_point_applied_to_settings(self):
        spec = CampaignSpec(
            name="t",
            workloads=("gcc",),
            base_settings=fast_settings(),
            sweep=(("p_cell", (5e-9,)), ("num_accesses", (123,))),
        )
        (job,) = spec.jobs()
        assert job.settings.p_cell == 5e-9
        assert job.settings.num_accesses == 123

    def test_seed_strided_per_workload(self):
        spec = CampaignSpec(
            name="t",
            workloads=("gcc", "mcf", "namd"),
            base_settings=fast_settings(seed=10),
        )
        assert [j.settings.seed for j in spec.jobs()] == [10, 11, 12]

    def test_seed_stride_disabled(self):
        spec = CampaignSpec(
            name="t",
            workloads=("gcc", "mcf"),
            base_settings=fast_settings(seed=10),
            stride_seed=False,
        )
        assert [j.settings.seed for j in spec.jobs()] == [10, 10]

    def test_cross_product_of_two_sweeps(self):
        spec = CampaignSpec(
            name="t",
            workloads=("gcc",),
            base_settings=fast_settings(),
            sweep=(("p_cell", (1e-9, 1e-8)), ("ones_count", (50, 100))),
        )
        assert len(spec.points()) == 4
        assert spec.num_jobs == 4

    def test_mapping_sweep_is_normalised(self):
        spec = CampaignSpec(
            name="t",
            workloads=("gcc",),
            base_settings=fast_settings(),
            sweep={"p_cell": (1e-9,)},
        )
        assert spec.sweep == (("p_cell", (1e-9,)),)

    def test_rejects_unsweepable_field(self):
        with pytest.raises(CampaignError, match="cannot sweep"):
            CampaignSpec(
                name="t",
                workloads=("gcc",),
                base_settings=fast_settings(),
                sweep=(("l2_config", (1,)),),
            )


class TestDottedSweepPaths:
    def spec_with_sweep(self, sweep):
        return CampaignSpec(
            name="t", workloads=("gcc",), base_settings=fast_settings(), sweep=sweep
        )

    def test_nested_l2_field(self):
        spec = self.spec_with_sweep((("l2_config.associativity", (4, 8)),))
        jobs = spec.jobs()
        assert [j.settings.l2_config.associativity for j in jobs] == [4, 8]
        # Everything else survives the nested rebuild.
        assert all(j.settings.l2_config.size_bytes == 256 * 1024 for j in jobs)
        assert jobs[0].key != jobs[1].key

    def test_doubly_nested_ecc_kind(self):
        from repro.config import ECCKind

        spec = self.spec_with_sweep(
            (("l2_config.ecc.kind", ("parity", "hamming-secded")),)
        )
        kinds = [j.settings.l2_config.ecc.kind for j in spec.jobs()]
        assert kinds == [ECCKind.PARITY, ECCKind.HAMMING_SECDED]

    def test_mtj_field(self):
        spec = self.spec_with_sweep((("mtj.read_current_ua", (30.0, 50.0)),))
        assert [j.settings.mtj.read_current_ua for j in spec.jobs()] == [30.0, 50.0]

    def test_dotted_cross_product_with_scalar(self):
        spec = self.spec_with_sweep(
            (("l2_config.associativity", (4, 8)), ("p_cell", (1e-9, 1e-8)))
        )
        assert spec.num_jobs == 4
        (job, *_rest) = spec.jobs()
        assert job.point == (("l2_config.associativity", 4), ("p_cell", 1e-9))
        assert job.point_label == "l2_config.associativity=4,p_cell=1e-09"

    def test_unknown_segment_named_in_error(self):
        with pytest.raises(CampaignError, match="unknown segment 'assoc'"):
            self.spec_with_sweep((("l2_config.assoc", (4,)),))
        with pytest.raises(CampaignError, match="unknown segment 'knd'"):
            self.spec_with_sweep((("l2_config.ecc.knd", ("parity",)),))

    def test_error_lists_valid_fields(self):
        with pytest.raises(CampaignError, match="associativity"):
            self.spec_with_sweep((("l2_config.bogus", (1,)),))

    def test_path_through_scalar_rejected(self):
        with pytest.raises(CampaignError, match="scalar field"):
            self.spec_with_sweep((("p_cell.extra", (1,)),))

    def test_path_ending_at_config_rejected(self):
        with pytest.raises(CampaignError, match="whole nested configuration"):
            self.spec_with_sweep((("l2_config.ecc", (1,)),))

    def test_invalid_swept_value_fails_on_application(self):
        spec = self.spec_with_sweep((("l2_config.associativity", (7,)),))
        with pytest.raises(Exception, match="power of two|associativity|multiple"):
            spec.jobs()

    def test_dict_roundtrip_preserves_dotted_keys(self):
        spec = self.spec_with_sweep((("l2_config.ecc.kind", ("parity",)),))
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert [j.key for j in clone.jobs()] == [j.key for j in spec.jobs()]

    def test_rejects_empty_sweep_values(self):
        with pytest.raises(CampaignError, match="no values"):
            CampaignSpec(
                name="t",
                workloads=("gcc",),
                base_settings=fast_settings(),
                sweep=(("p_cell", ()),),
            )

    def test_rejects_empty_workloads(self):
        with pytest.raises(CampaignError):
            CampaignSpec(name="t", workloads=(), base_settings=fast_settings())

    @pytest.mark.parametrize(
        "field, overrides",
        (
            ("workloads", {"workloads": "gcc"}),
            ("alternatives", {"alternatives": "reap"}),
            ("'p_cell'", {"sweep": (("p_cell", "1e-9"),)}),
            ("'p_cell'", {"sweep": {"p_cell": "1e-9"}}),
        ),
    )
    def test_rejects_bare_string_lists(self, field, overrides):
        arguments = dict(name="t", workloads=("gcc",), base_settings=fast_settings())
        arguments.update(overrides)
        with pytest.raises(CampaignError, match=f"{field} must be a list"):
            CampaignSpec(**arguments)

    @pytest.mark.parametrize(
        "field, overrides",
        (
            ("workloads", {"workloads": "gcc"}),
            ("alternatives", {"alternatives": "reap"}),
            ("'p_cell'", {"sweep": [["p_cell", "1e-9"]]}),
        ),
    )
    def test_from_dict_rejects_bare_string_lists(self, field, overrides):
        data = CampaignSpec(
            name="t", workloads=("gcc",), base_settings=fast_settings()
        ).to_dict()
        data.update(overrides)
        with pytest.raises(CampaignError, match=f"{field} must be a list"):
            CampaignSpec.from_dict(data)

    def test_dict_roundtrip(self):
        spec = CampaignSpec(
            name="round",
            workloads=("gcc", "mcf"),
            base_settings=fast_settings(),
            alternatives=("reap", "serial"),
            sweep=(("p_cell", (1e-9, 1e-8)),),
            stride_seed=False,
        )
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert [j.key for j in clone.jobs()] == [j.key for j in spec.jobs()]


class TestContentHash:
    def test_insensitive_to_dict_key_order(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert content_hash({"a": 1}) != content_hash({"a": 2})

    def test_rejects_nan(self):
        with pytest.raises(CampaignError):
            content_hash({"a": float("nan")})

    def test_rejects_unserialisable_types(self):
        with pytest.raises(CampaignError):
            content_hash({"a": object()})
