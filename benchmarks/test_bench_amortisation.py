"""Bench: cross-job artifact-cache amortisation on a parameter sweep.

Runs the same 12-point ``p_cell`` sweep over one workload three ways:

* **uncached** — no artifact cache; every job regenerates and re-decodes
  the workload trace, which is what every sweep paid before the cache;
* **cold** — an empty cache directory; the first job derives and
  publishes the trace, the remaining eleven hit it (in-run amortisation);
* **warm** — the populated directory, as a second campaign or another
  worker machine would see it; every job serves the trace from disk.

The three sweeps run in three interleaved rounds.  Two things are checked.
The mechanism, exactly: in every round the sweeps generate the trace 12, 1
and 0 times.  And the pay-off, as a ratio of best-of-three times: the warm
sweep must run at least 1.3x faster than the uncached one, the threshold
below which the L2-trace artifact kind would no longer earn its code.  The
columnar generator keeps trace derivation well below half of an uncached
job, so the ratio sits near 1.6-1.8x.  Results land in
``BENCH_amortisation.json`` (uploaded as a CI artifact) together with the
store-identity check: every sweep of every round must fill a
byte-identical store.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.config import CacheLevelConfig
from repro.sim import ExperimentSettings, experiment
from repro.workloads import artifacts, generator

#: Sweep size; the amortisation claim needs a >= 10-point sweep.
SWEEP_POINTS = tuple(1e-9 * (index + 1) for index in range(12))

#: Accesses per job.
NUM_ACCESSES = 20_000

#: Warm-over-uncached floor: below it the L2-trace artifact kind is not
#: worth keeping.
WARM_SPEEDUP_FLOOR = 1.3

#: Interleaved uncached/cold/warm rounds; each sweep's time is its best
#: round, so one noisy round cannot decide the ratio.
ROUNDS = 3


def sweep_spec() -> CampaignSpec:
    return CampaignSpec(
        name="bench-amortisation",
        workloads=("gcc",),
        base_settings=ExperimentSettings(
            l2_config=CacheLevelConfig(
                name="L2",
                size_bytes=256 * 1024,
                associativity=8,
                block_size_bytes=64,
                technology="stt-mram",
            ),
            num_accesses=NUM_ACCESSES,
            seed=1,
        ),
        sweep=(("p_cell", SWEEP_POINTS),),
    )


def run_sweep(store_path: Path, artifact_cache) -> float:
    store = ResultStore(store_path)
    start = time.perf_counter()
    run_campaign(
        sweep_spec(),
        store=store,
        backend="serial",
        artifact_cache=artifact_cache,
    )
    return time.perf_counter() - start


def test_bench_amortisation_warm_vs_cold(monkeypatch):
    """The cache removes every regeneration and pays for itself on a sweep."""
    generations = []

    def counting_generate(*args, **kwargs):
        generations.append(1)
        return generator.generate_l2_trace(*args, **kwargs)

    for module in (experiment, artifacts):
        monkeypatch.setattr(module, "generate_l2_trace", counting_generate)

    labels = ("uncached", "cold", "warm")
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        seconds = {label: [] for label in labels}
        blobs = []
        for round_index in range(ROUNDS):
            cache_dir = tmp_path / f"artifacts-{round_index}"
            generated = {}
            for label in labels:
                store_path = tmp_path / f"{label}-{round_index}.jsonl"
                before = len(generations)
                artifact_cache = None if label == "uncached" else cache_dir
                seconds[label].append(run_sweep(store_path, artifact_cache))
                generated[label] = len(generations) - before
                blobs.append(store_path.read_bytes())
            # The mechanism, exactly: one generation per uncached job, one
            # per cold sweep, none once the cache is warm.
            assert generated == {"uncached": len(SWEEP_POINTS), "cold": 1, "warm": 0}

        # The operational knob must not change a single stored byte.
        assert all(blob == blobs[0] for blob in blobs)

        uncached_s, cold_s, warm_s = (min(seconds[label]) for label in labels)
        speedup_warm = uncached_s / warm_s
        speedup_cold = uncached_s / cold_s
        report = {
            "workloads": ["gcc"],
            "sweep_points": len(SWEEP_POINTS),
            "accesses_per_job": NUM_ACCESSES,
            "rounds": ROUNDS,
            "uncached_s": round(uncached_s, 3),
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 3),
            "warm_speedup_over_uncached": round(speedup_warm, 2),
            "cold_speedup_over_uncached": round(speedup_cold, 2),
            "trace_generations": generated,
            "stores_byte_identical": True,
        }
        output = Path("BENCH_amortisation.json")
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(
            f"\n[amortisation] {len(SWEEP_POINTS)}-point sweep x "
            f"{NUM_ACCESSES} accesses, best of {ROUNDS}: uncached "
            f"{uncached_s:.2f}s, cold {cold_s:.2f}s, warm {warm_s:.2f}s "
            f"(warm {speedup_warm:.1f}x, cold {speedup_cold:.1f}x)"
        )
        assert speedup_warm >= WARM_SPEEDUP_FLOOR, (
            f"warm artifact cache only {speedup_warm:.2f}x over an uncached "
            f"sweep (floor {WARM_SPEEDUP_FLOOR}x)"
        )
