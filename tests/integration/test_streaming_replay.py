"""End-to-end out-of-core replay: byte-identical results, whole vs segmented.

The CI gate for the streaming tier: generate a trace, persist it in the
binary chunked format, replay it whole — through the experiment layer and
through a persistent campaign store — and in many small segments through
:func:`repro.sim.run_l2_trace`, and assert the *serialised* results (the
canonical JSON bytes that job keys and store merges operate on) are
byte-for-byte identical.
"""

from __future__ import annotations

import json

import pytest
from equivalence_utils import segmented

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.hashing import canonical_json
from repro.campaign.store import comparison_to_dict
from repro.config import CacheLevelConfig
from repro.core import ProtectionScheme, build_protected_cache
from repro.sim import ExperimentSettings, WorkloadComparison, compare_schemes, run_l2_trace
from repro.workloads import generate_l2_trace, get_profile, open_trace

NUM_ACCESSES = 8000
SEGMENT_ACCESSES = 1024  # 8 segments over 8000 accesses


@pytest.fixture(scope="module")
def l2_config():
    return CacheLevelConfig(
        name="L2",
        size_bytes=64 * 1024,
        associativity=8,
        block_size_bytes=64,
        technology="stt-mram",
    )


@pytest.fixture(scope="module")
def trace_path(l2_config, tmp_path_factory):
    trace = generate_l2_trace(get_profile("mcf"), l2_config, NUM_ACCESSES, seed=9)
    path = tmp_path_factory.mktemp("replay") / "mcf.trc"
    # Several chunks, so replay segments cross chunk boundaries.
    trace.save_binary(path, chunk_accesses=1500)
    return path


def settings_for(l2_config, trace_path):
    return ExperimentSettings(l2_config=l2_config, trace_file=str(trace_path))


def segmented_comparison(settings: ExperimentSettings) -> WorkloadComparison:
    """``compare_schemes("mcf", settings=settings)``, replayed in segments."""
    results = []
    with open_trace(settings.trace_file) as source:
        for scheme in (ProtectionScheme.CONVENTIONAL, ProtectionScheme.REAP):
            cache = build_protected_cache(
                scheme,
                settings.l2_config,
                mtj=settings.mtj,
                p_cell=settings.p_cell,
                data_profile=settings.data_profile(settings.seed),
                seed=settings.seed,
                track_accumulation=settings.track_accumulation,
            )
            results.append(
                run_l2_trace(cache, segmented(source, SEGMENT_ACCESSES))
            )
    return WorkloadComparison(
        workload="mcf", baseline=results[0], alternatives=tuple(results[1:])
    )


def test_trace_file_is_multi_segment(trace_path):
    with open_trace(trace_path) as source:
        assert len(source) == NUM_ACCESSES
        segments = list(source.segments(SEGMENT_ACCESSES))
        assert len(segments) == 8


def test_comparison_bytes_identical_whole_vs_segmented(l2_config, trace_path):
    settings = settings_for(l2_config, trace_path)
    whole = compare_schemes("mcf", settings=settings)
    segmented = segmented_comparison(settings)
    whole_bytes = canonical_json(comparison_to_dict(whole)).encode()
    segmented_bytes = canonical_json(comparison_to_dict(segmented)).encode()
    assert whole_bytes == segmented_bytes


def test_store_result_bytes_identical_whole_vs_segmented(
    l2_config, trace_path, tmp_path
):
    def run_into(store_path):
        spec = CampaignSpec(
            name="streaming-ci",
            workloads=("mcf",),
            base_settings=settings_for(l2_config, trace_path),
        )
        run_campaign(spec, store=str(store_path))
        records = [
            json.loads(line)
            for line in store_path.read_text().splitlines()
            if line.strip()
        ]
        assert len(records) == 1
        return records[0]

    whole = run_into(tmp_path / "whole.jsonl")
    segmented = segmented_comparison(settings_for(l2_config, trace_path))
    # The stored *result* payload — what merges, diffs and figure builders
    # consume — must be byte-identical to the segmented replay's.
    assert canonical_json(whole["result"]) == canonical_json(
        comparison_to_dict(segmented)
    )
