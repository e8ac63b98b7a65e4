#!/usr/bin/env python3
"""Repository benchmark: times four paper workloads through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5_suite --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with telemetry off:
``accesses_per_s`` (median over timed passes), ``setup_s`` (imports plus
the median of three set-ups), both scaled to a nominal host speed by
:class:`HostClock`, and ``peak_rss_mb`` (the process's peak resident set).
``--trace 1`` gives the per-layer split instead, from alternating untraced
and traced passes, and prints a per-layer self-time table.  Every pass's
outputs are digested and checked against ``golden.json`` when it holds the
seed, and against the run's own warm-up pass otherwise; a mismatch or an
exception counts as a failed operation.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--out PATH`` also writes the result, stamped with the commit and machine,
to PATH.  ``--record-golden`` stores the digests of the given seed in
``golden.json`` (only when the program's outputs are meant to change).
See ``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Calibration kernel time (s) on the nominal host; see :class:`HostClock`.
NOMINAL_CALIBRATION_S = 0.01
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Fewest timed passes a run makes, however long they take.
MIN_PASSES = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the stamped result here")
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="store this seed's output digests in golden.json",
    )
    return parser.parse_args(argv)


def clear_repro_environment() -> None:
    """Drop every ``REPRO_*`` variable (artifact cache, telemetry, faults, auth)."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def environment_stamp() -> dict[str, object]:
    """Commit, dirty flag, library versions and CPU of this measurement."""
    import numpy
    import scipy

    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


class Checker:
    """Counts operations and failures against the expected output digests.

    Digests come in two groups: ``"pass"`` (one per operation of a pass) and
    ``"verify"`` (one per generated trace).  Each group is checked against
    the committed golden digests when there are any for the seed, and
    against the group's first observation in this run otherwise.
    """

    def __init__(self, expected: dict[str, dict[str, str]] | None) -> None:
        self.expected = dict(expected or {})
        self.attempted = 0
        self.failed = 0
        self.ops_per_pass = 1

    def check(self, group: str, outputs: dict[str, str]) -> None:
        if group not in self.expected:
            self.expected[group] = dict(outputs)
        if group == "pass":
            self.ops_per_pass = max(1, len(self.expected[group]))
        wanted = self.expected[group]
        for name in sorted(wanted.keys() | outputs.keys()):
            self.attempted += 1
            if outputs.get(name) != wanted.get(name):
                self.failed += 1
                print(
                    f"# MISMATCH {name}: {outputs.get(name)} != {wanted.get(name)}",
                    file=sys.stderr,
                )

    def raised(self, phase: str, exc: BaseException) -> None:
        self.attempted += self.ops_per_pass
        self.failed += self.ops_per_pass
        print(f"# FAILED {phase}: {exc!r}", file=sys.stderr)


def run_pass(workload, state, checker: Checker, phase: str):
    """One pass plus its check; returns (result or None, wall seconds)."""
    started = time.perf_counter()
    try:
        result = workload.run(state)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        checker.raised(phase, exc)
        return None, time.perf_counter() - started
    wall = time.perf_counter() - started
    checker.check("pass", result.outputs)
    return result, wall


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a + 1


class HostClock:
    """Wall time scaled to a nominal host speed.

    The machine this runs on shares its cores, and its speed drifts by 20-30%
    over tens of seconds.  Each timed interval is therefore bracketed by a
    fixed calibration kernel, and its wall time is scaled by
    ``NOMINAL_CALIBRATION_S / calibration time``: the time the interval
    would take on a host where the kernel takes exactly the nominal time.
    The kernel shares no code with ``repro``.  It allocates small objects,
    reads their attributes and counts keys in a dict, which tracked the
    workloads' slowdowns more closely than an integer loop or a NumPy sort.
    """

    def __init__(self) -> None:
        import random

        self._keys = random.Random(0).choices(range(200_000), k=20_000)

    def _kernel(self) -> None:
        total = 0
        for cell in [_Cell(index) for index in range(20_000)]:
            total += cell.a * cell.b
        counts: dict[int, int] = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + 1

    def calibration_s(self) -> float:
        """Best of three timings of the calibration kernel."""
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - started)
        return best

    def scale(self, wall_s: float, *calibrations: float) -> float:
        """``wall_s`` at the nominal speed, given the bracketing calibrations."""
        return wall_s * NOMINAL_CALIBRATION_S / statistics.fmean(calibrations)


def timed_setups(workload, seed: int, workdir: Path, clock: HostClock):
    """Run the set-up repeatedly; returns (last state, median normalised s)."""
    durations = []
    state = None
    for _ in range(SETUP_REPEATS):
        before = clock.calibration_s()
        started = time.perf_counter()
        state = workload.setup(seed, workdir)
        wall = time.perf_counter() - started
        durations.append(clock.scale(wall, before, clock.calibration_s()))
    return state, statistics.median(durations)


def measure_end_to_end(workload, state, checker: Checker, clock, seconds):
    """Timed passes until ``seconds`` have elapsed.

    Returns the metrics (median normalised rate, peak RSS of the process so
    far) and the raw figures behind them.
    """
    rates, raw_rates, calibrations = [], [], []
    deadline = time.perf_counter() + seconds
    while len(rates) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        before = clock.calibration_s()
        result, wall = run_pass(workload, state, checker, "timed pass")
        calibrations += [before, clock.calibration_s()]
        if result is not None:
            normalised = clock.scale(wall, *calibrations[-2:])
            rates.append(result.accesses / normalised)
            raw_rates.append(result.accesses / wall)
        elif time.perf_counter() >= deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    measured = {
        "accesses_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    raw = {
        "accesses_per_s": statistics.median(raw_rates) if raw_rates else 0.0,
        "calibration_s": statistics.median(calibrations),
        "passes": len(rates),
    }
    return measured, raw


def measure_layers(workload, state, setup_events, checker, seconds) -> dict:
    """Alternate untraced and traced passes; average the traced splits."""
    import layers
    from repro.telemetry import span

    untraced, traced_walls, per_pass, per_pass_layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(per_pass) < 2 or time.perf_counter() < deadline:
        _, wall = run_pass(workload, state, checker, "untraced pass")
        untraced.append(wall)
        with layers.traced() as sink:
            with span("bench.pass"):
                traced_result, wall = run_pass(workload, state, checker, "traced pass")
        if traced_result is None:
            if time.perf_counter() >= deadline:
                break
            continue
        result = traced_result
        traced_walls.append(wall)
        per_pass.append(layers.pass_metrics(sink.events))
        per_pass_layers.append(layers.layer_self_times(sink.events))
    if not per_pass:
        return {}
    metrics = layers.mean_metrics(per_pass)
    metrics.update(layers.setup_metrics(setup_events))
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced) - 1.0
    )
    metrics.update(result.modelled())
    metrics["paper_gap"] = result.paper_gap or 0.0
    print(
        layers.render_table(
            workload.name,
            layers.layer_self_times(setup_events),
            layers.mean_metrics(per_pass_layers),
            metrics["traced.wall_s"],
        )
    )
    units = dict(layers.METRICS)
    return {name: (metrics[name], units[name]) for name, _ in layers.METRICS}


def record_golden(workload_name: str, seed: int, digests: dict) -> None:
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    golden.setdefault(workload_name, {})[str(seed)] = digests
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    clear_repro_environment()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args: argparse.Namespace, workdir: Path) -> int:
    started = time.perf_counter()
    import suite  # imports repro and its numeric stack

    import_s = time.perf_counter() - started
    clock = HostClock()
    import_s = clock.scale(import_s, clock.calibration_s())
    workload = suite.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose one of {', '.join(suite.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    expected = golden.get(workload.name, {}).get(str(args.seed))
    checker = Checker(None if args.record_golden else expected)
    stamp = environment_stamp()
    print(f"# env {json.dumps(stamp, sort_keys=True)}")
    print(
        f"# workload {workload.name} seed {args.seed}: {workload.why}"
        f" (golden digests: {'yes' if expected else 'no'})"
    )

    setup_events: list = []
    if args.trace:
        import layers

        with layers.traced() as sink:
            state = workload.setup(args.seed, workdir)
        setup_events = sink.events
    else:
        state, setup_work_s = timed_setups(workload, args.seed, workdir, clock)
    # Warm-up pass: lazy imports and first-touch costs land here, and its
    # digests (plus the generated traces') are the run's reference.
    first, _ = run_pass(workload, state, checker, "warm-up pass")
    try:
        verified = workload.verify(state)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        verified = {}
        checker.raised("verify", exc)
    checker.check("verify", verified)
    if args.record_golden:
        if first is None or checker.failed:
            print("perfbench: not recording a failing run", file=sys.stderr)
            return 1
        record_golden(
            workload.name, args.seed, {"pass": first.outputs, "verify": verified}
        )
        print(f"# recorded {len(first.outputs) + len(verified)} digests")
        return 0

    if args.trace:
        measured = measure_layers(
            workload, state, setup_events, checker, args.seconds
        )
    else:
        measured, raw = measure_end_to_end(
            workload, state, checker, clock, args.seconds
        )
        measured["setup_s"] = (import_s + setup_work_s, "s")
        print(
            f"# normalised import {import_s:.4f} s, set-up work {setup_work_s:.4f} s;"
            f" {raw['passes']} timed passes, raw median {raw['accesses_per_s']:.0f}"
            f" accesses/s at calibration {raw['calibration_s']:.5f} s"
        )
        if first is not None:
            print(
                f"# {first.accesses} accesses/pass, paper_gap {first.paper_gap},"
                f" modelled {first.modelled()}"
            )
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()
    }
    failed_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"# attempted {checker.attempted}, failed {checker.failed} ({failed_frac:.4f})")
    result = {
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": metrics,
    }
    if args.out is not None:
        record = {
            **result,
            "failed_frac": failed_frac,
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "stamp": stamp,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
