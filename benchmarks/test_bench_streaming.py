"""Bench: out-of-core replay memory model and throughput.

The streaming tier's promise is *constant-memory* replay: peak allocation
during segmented replay of a binary on-disk trace is bounded by the segment
size, not the trace length.  The bench writes a 1x and a 10x trace in the
binary chunked format, replays both from disk with the same segment size,
and measures the Python-heap peak of each replay with ``tracemalloc``
(process RSS is a non-decreasing high-water mark, useless for comparing two
phases within one process; the traced heap peak is what the replay itself
allocates).

Guards:

* the 10x replay's heap peak must stay within 1.5x of the 1x replay's —
  flat in trace length, with headroom for allocator noise (locally the two
  peaks agree to within ~2%, both dominated by one segment of decoded
  arrays plus kernel scratch);
* whole-trace in-memory replay of the 10x trace, by contrast, decodes the
  full trace up front — the bench reports the ratio for context;
* segmented throughput is reported (accesses/s) so streaming overhead stays
  visible in the CI artifacts.
"""

from __future__ import annotations

import os
import time
import tracemalloc

from conftest import bench_settings
from equivalence_utils import segmented
from repro.core import build_protected_cache
from repro.sim import run_l2_trace
from repro.sim.soa import clear_kernel_memo
from repro.workloads import generate_l2_trace, get_profile, open_trace

#: Base (1x) trace length; the flatness check replays 10x this from disk.
BASE_ACCESSES = int(os.environ.get("REPRO_BENCH_STREAM_ACCESSES", "20000"))

SEGMENT_ACCESSES = 4096


def _write_binary(tmp_path, factor: int):
    settings = bench_settings(num_accesses=BASE_ACCESSES * factor)
    trace = generate_l2_trace(
        get_profile("mcf"), settings.l2_config, BASE_ACCESSES * factor, seed=1
    )
    path = tmp_path / f"mcf_{factor}x.trc"
    trace.save_binary(path, chunk_accesses=SEGMENT_ACCESSES * 2)
    return settings, path


def _build_cache(settings):
    return build_protected_cache(
        "reap",
        settings.l2_config,
        p_cell=settings.p_cell,
        data_profile=settings.data_profile(settings.seed),
        seed=settings.seed,
        track_accumulation=False,
    )


def _replay_peak(settings, path) -> tuple[int, float, int]:
    """Segmented replay from disk; returns (heap peak, seconds, accesses)."""
    cache = _build_cache(settings)
    # A memo hit would skip the first segment's pass 1 and exposure pass;
    # time the whole kernel.
    clear_kernel_memo()
    with open_trace(path) as source:
        accesses = len(source)
        tracemalloc.start()
        start = time.perf_counter()
        run_l2_trace(cache, segmented(source, SEGMENT_ACCESSES), engine="fast")
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak, elapsed, accesses


def test_streaming_replay_memory_stays_flat(tmp_path):
    settings_1x, path_1x = _write_binary(tmp_path, 1)
    settings_10x, path_10x = _write_binary(tmp_path, 10)

    peak_1x, elapsed_1x, accesses_1x = _replay_peak(settings_1x, path_1x)
    peak_10x, elapsed_10x, accesses_10x = _replay_peak(settings_10x, path_10x)

    throughput = accesses_10x / elapsed_10x
    print(
        f"\nstreaming replay: 1x ({accesses_1x} accesses) heap peak "
        f"{peak_1x / 1e6:.2f} MB in {elapsed_1x:.3f}s; "
        f"10x ({accesses_10x} accesses) heap peak {peak_10x / 1e6:.2f} MB "
        f"in {elapsed_10x:.3f}s ({throughput:,.0f} accesses/s); "
        f"peak ratio {peak_10x / peak_1x:.2f}x for 10x the trace"
    )
    assert accesses_10x == 10 * accesses_1x
    # Constant-memory promise: 10x the trace, (near-)identical heap peak.
    assert peak_10x <= 1.5 * peak_1x, (
        f"streaming replay peak grew with trace length: "
        f"{peak_1x} B at 1x vs {peak_10x} B at 10x"
    )


def test_whole_trace_replay_scales_with_length_for_context(tmp_path):
    """The contrast case: in-memory whole-trace decode grows with the trace."""
    settings, path = _write_binary(tmp_path, 10)
    from repro.workloads import read_trace

    trace = read_trace(path)
    cache = _build_cache(settings)
    clear_kernel_memo()
    tracemalloc.start()
    run_l2_trace(cache, trace, engine="fast")
    _, whole_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    streamed_peak, _, _ = _replay_peak(settings, path)
    print(
        f"\nwhole-trace 10x heap peak {whole_peak / 1e6:.2f} MB vs "
        f"streamed {streamed_peak / 1e6:.2f} MB "
        f"({whole_peak / max(streamed_peak, 1):.1f}x)"
    )
    # Whole-trace replay of the 10x trace must allocate strictly more than
    # bounded-segment replay of the same file.
    assert whole_peak > streamed_peak
