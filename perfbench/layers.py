"""Per-layer split of a workload pass, read from telemetry spans.

Two span sources feed one :class:`ClockedSink` (a ``MemorySink``):

* the spans the program already emits — ``kernel.decode``/``pass1``/
  ``pass2``/``l1_filter``/``segment``, ``job.execute``, ``campaign.run`` —
  plus its ``cache.artifact`` counters and ``sim.engine`` events;
* ``bench.*`` spans this module opens around calls into each layer's public
  functions (generator, artifact cache, cache construction, engine entry
  points, histogram, figure builders, result store).  The wrappers are
  installed only for a traced pass and removed afterwards, so untraced
  passes run the program untouched.

Both kinds are :class:`repro.telemetry.Span` objects, so they read the same
``time.perf_counter`` clock.  The sink stamps each span's end on that clock
as it arrives; start is end minus ``duration_s``.  Spans nest by interval
containment (the run is single-threaded), and a span's self time is its
duration minus its direct children's durations.  The root ``bench.pass``
span's self time is the part of the pass no layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.telemetry import MemorySink, span, telemetry

#: Containment slack (s) for the few microseconds between a span's finish
#: and the sink's clock read.
_TOLERANCE_S = 2e-5

#: Modules whose by-name imports of a wrapped function are redirected.
_CALLERS = ("repro", "suite")

#: Schemes whose SoA pass throughput is reported separately.
SCHEMES = ("conventional", "reap", "restore", "scrubbing")

#: Self-time rows of the report: layer -> span names whose self time it owns.
#: ``bench.artifact_lookup`` spans go to ``artifacts.read`` on a hit and to
#: ``artifacts.publish`` on a miss (see :func:`_layer_of`).
LAYERS = {
    "generator": ("bench.generate",),
    "artifacts.read": ("bench.artifact_read",),
    "artifacts.publish": (),
    "core.build": ("bench.build_cache",),
    "engine.entry": ("bench.engine",),
    "decode": ("kernel.decode", "kernel.segment"),
    "l1_filter": ("kernel.l1_filter",),
    "pass1": ("kernel.pass1",),
    "pass2": ("kernel.pass2",),
    "loop/reference": ("kernel.replay", "reference.replay"),
    "histogram": ("bench.histogram", "bench.histogram.prob"),
    "analysis": ("bench.analysis",),
    "job": ("job.execute",),
    "campaign": ("campaign.run",),
    "store.put": ("bench.store_put",),
    "unaccounted": ("bench.pass",),
}

#: Every per-layer metric a traced run reports, in report order.
METRICS = (
    ("generator.s", "s"),
    ("generator.accesses_per_s", "1/s"),
    ("setup.generator_s", "s"),
    ("artifacts.read_s", "s"),
    ("artifacts.publish_s", "s"),
    ("artifacts.hit_ratio", "ratio"),
    ("core.build_s", "s"),
    ("engine.entry_s", "s"),
    ("engine.reference_runs", "count"),
    ("decode.s", "s"),
    ("pass1.s", "s"),
    ("pass2.s", "s"),
    *((f"pass1.accesses_per_s.{scheme}", "1/s") for scheme in SCHEMES),
    *((f"pass2.accesses_per_s.{scheme}", "1/s") for scheme in SCHEMES),
    ("l1_filter.s", "s"),
    ("l1_filter.refs_per_s", "1/s"),
    ("histogram.s", "s"),
    ("histogram.deliveries_per_s", "1/s"),
    ("histogram.prob_passes", "count"),
    ("analysis.s", "s"),
    ("job.self_s", "s"),
    ("campaign.overhead_s", "s"),
    ("store.put_s", "s"),
    ("traced.wall_s", "s"),
    ("unaccounted_s", "s"),
    ("trace_overhead_frac", "ratio"),
    ("l2.accesses", "count"),
    ("l2.hit_rate", "ratio"),
    ("l2.max_concealed_reads", "count"),
    ("hierarchy.l2_writebacks", "count"),
    ("paper_gap", "log10"),
)


class ClockedSink(MemorySink):
    """A ``MemorySink`` that stamps each event with ``perf_counter`` on arrival."""

    def emit(self, event: dict[str, Any]) -> None:
        event["clock_end"] = time.perf_counter()
        super().emit(event)


# ---------------------------------------------------------------------------
# Wrappers around the layers' public functions
# ---------------------------------------------------------------------------


def _spanned(name: str, annotate: Callable[..., dict] | None = None):
    """Wrap a function so each call runs inside a ``name`` span."""

    def decorate(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with span(name, fn=function.__name__) as current:
                result = function(*args, **kwargs)
                if annotate is not None:
                    current.add(**annotate(result, args, kwargs))
            return result

        return wrapper

    return decorate


def _artifact_lookup(function):
    """``ArtifactCache.l2_trace``: a hit opens the artifact, a miss publishes."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        from repro.workloads import BinaryTraceSource

        with span("bench.artifact_lookup") as current:
            result = function(*args, **kwargs)
            current.add(hit=isinstance(result, BinaryTraceSource))
        return result

    return wrapper


def _timed_segments(function):
    """``BinaryTraceSource.segments``: time each segment read from the map."""

    @functools.wraps(function)
    def segments(self, *args, **kwargs):
        iterator = function(self, *args, **kwargs)
        while True:
            with span("bench.artifact_read"):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    return segments


def _wrapper_table() -> list[tuple[str, str, str | None, Callable]]:
    """(module, attribute, owning class or None, wrapper factory) per layer."""
    return [
        (
            "repro.workloads.generator",
            "generate_l2_trace",
            None,
            _spanned("bench.generate", lambda trace, *_: {"accesses": len(trace)}),
        ),
        *(
            ("repro.workloads.synthetic", name, None, _spanned("bench.generate"))
            for name in (
                "sequential_trace",
                "pointer_chase_trace",
                "hot_loop_trace",
                "mixed_trace",
            )
        ),
        ("repro.workloads.artifacts", "l2_trace", "ArtifactCache", _artifact_lookup),
        ("repro.workloads.streams", "segments", "BinaryTraceSource", _timed_segments),
        ("repro.core", "build_protected_cache", None, _spanned("bench.build_cache")),
        ("repro.sim.engine", "run_l2_trace", None, _spanned("bench.engine")),
        ("repro.sim.engine", "run_cpu_trace", None, _spanned("bench.engine")),
        (
            "repro.reliability.accumulation",
            "__init__",
            "ConcealedReadHistogram",
            _spanned(
                "bench.histogram",
                lambda _result, args, kwargs: {
                    "deliveries": len(kwargs.get("tracker") or args[1])
                },
            ),
        ),
        *(
            (
                "repro.reliability.accumulation",
                name,
                "ConcealedReadHistogram",
                _spanned("bench.histogram"),
            )
            for name in ("bins", "total_failure_rate", "tail_dominance_ratio")
        ),
        (
            "repro.reliability.accumulation",
            "per_access_failure_probabilities",
            "ConcealedReadHistogram",
            _spanned("bench.histogram.prob"),
        ),
        *(
            ("repro.analysis.figures", name, None, _spanned("bench.analysis"))
            for name in (
                "build_figure3",
                "comparisons_to_figure5",
                "comparisons_to_figure6",
            )
        ),
        ("repro.campaign.store", "put", "BaseResultStore", _spanned("bench.store_put")),
    ]


@contextmanager
def layer_wrappers() -> Iterator[None]:
    """Install the ``bench.*`` wrappers for the scope, then restore originals.

    A module-level function is replaced in every loaded ``repro`` module
    (and in this benchmark's ``suite``) that imported it by name, so callers
    see the wrapper whichever alias they use.  An attribute a later version
    no longer has is skipped.
    """
    restore: list[tuple[Any, str, Any]] = []
    try:
        for module_name, attribute, owner, factory in _wrapper_table():
            module = importlib.import_module(module_name)
            if owner is not None:
                cls = getattr(module, owner, None)
                original = None if cls is None else cls.__dict__.get(attribute)
                if original is None:
                    continue
                restore.append((cls, attribute, original))
                setattr(cls, attribute, factory(original))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                continue
            wrapped = factory(original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith(_CALLERS):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        restore.append((loaded, name, original))
                        setattr(loaded, name, wrapped)
        yield
    finally:
        for target, name, original in reversed(restore):
            setattr(target, name, original)


@contextmanager
def traced() -> Iterator[ClockedSink]:
    """Telemetry into a fresh :class:`ClockedSink`, with the wrappers on."""
    sink = ClockedSink()
    with telemetry(sink), layer_wrappers():
        yield sink


# ---------------------------------------------------------------------------
# Self times and metrics
# ---------------------------------------------------------------------------


def self_times(events: list[dict[str, Any]]) -> list[tuple[dict[str, Any], float]]:
    """Pair every span event with its self time (duration minus children)."""
    spans = [event for event in events if event["kind"] == "span"]
    spans.sort(key=lambda e: (e["clock_end"] - e["duration_s"], -e["duration_s"]))
    children: dict[int, float] = defaultdict(float)
    stack: list[dict[str, Any]] = []
    for event in spans:
        while stack and stack[-1]["clock_end"] < event["clock_end"] - _TOLERANCE_S:
            stack.pop()
        if stack:
            children[id(stack[-1])] += event["duration_s"]
        stack.append(event)
    return [(event, event["duration_s"] - children[id(event)]) for event in spans]


_OWNER = {name: layer for layer, names in LAYERS.items() for name in names}


def _layer_of(event: dict[str, Any]) -> str | None:
    if event["name"] == "bench.artifact_lookup":
        return "artifacts.read" if event.get("hit") else "artifacts.publish"
    return _OWNER.get(event["name"])


def layer_self_times(events: list[dict[str, Any]]) -> dict[str, float]:
    """Self time per :data:`LAYERS` row (spans outside the table are ignored)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for event, own in self_times(events):
        layer = _layer_of(event)
        if layer is not None:
            totals[layer] += own
    return totals


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def pass_metrics(events: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    layers = layer_self_times(events)
    spans = [event for event in events if event["kind"] == "span"]

    def named(*names: str) -> list[dict[str, Any]]:
        return [event for event in spans if event["name"] in names]

    def total(events_: list[dict[str, Any]]) -> float:
        return sum(event["duration_s"] for event in events_)

    generated = [e for e in named("bench.generate") if e.get("fn") == "generate_l2_trace"]
    histograms = named("bench.histogram")
    built = [e for e in histograms if e.get("fn") == "__init__"]
    deliveries = sum(event.get("deliveries", 0) for event in built)
    artifact_counts = defaultdict(float)
    for event in events:
        if event["kind"] == "counter" and event["name"] == "cache.artifact":
            if event.get("artifact") == "trace":
                artifact_counts[event.get("outcome")] += event.get("value", 1)
    lookups = sum(artifact_counts.values())
    l1 = named("kernel.l1_filter")

    metrics = {
        "generator.s": layers["generator"],
        "generator.accesses_per_s": _rate(
            sum(e.get("accesses", 0) for e in generated), total(generated)
        ),
        "artifacts.read_s": layers["artifacts.read"],
        "artifacts.hit_ratio": _rate(artifact_counts["hit"], lookups),
        "core.build_s": layers["core.build"],
        "engine.entry_s": layers["engine.entry"],
        "engine.reference_runs": sum(
            1
            for event in events
            if event["name"] == "sim.engine" and event.get("engine") == "reference"
        ),
        "decode.s": layers["decode"],
        "pass1.s": layers["pass1"],
        "pass2.s": layers["pass2"],
        "l1_filter.s": layers["l1_filter"],
        "l1_filter.refs_per_s": _rate(sum(e.get("accesses", 0) for e in l1), total(l1)),
        "histogram.s": layers["histogram"],
        "histogram.deliveries_per_s": _rate(deliveries, layers["histogram"]),
        "histogram.prob_passes": _rate(len(named("bench.histogram.prob")), len(built)),
        "analysis.s": layers["analysis"],
        "job.self_s": layers["job"],
        "campaign.overhead_s": total(named("campaign.run")) - total(named("job.execute")),
        "store.put_s": total(named("bench.store_put")),
        "traced.wall_s": total(named("bench.pass")),
        "unaccounted_s": layers["unaccounted"],
    }
    for phase in ("pass1", "pass2"):
        for scheme in SCHEMES:
            matching = [e for e in named(f"kernel.{phase}") if e.get("scheme") == scheme]
            metrics[f"{phase}.accesses_per_s.{scheme}"] = _rate(
                sum(e.get("accesses", 0) for e in matching), total(matching)
            )
    return metrics


def setup_metrics(events: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of the traced set-up (generation and publishing)."""
    layers = layer_self_times(events)
    return {
        "setup.generator_s": layers["generator"],
        "artifacts.publish_s": layers["artifacts.publish"],
    }


def mean_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Average each metric over the traced passes."""
    return {name: statistics.fmean(m[name] for m in per_pass) for name in per_pass[0]}


def render_table(
    workload: str,
    setup_layers: dict[str, float],
    pass_layers: dict[str, float],
    wall_s: float,
) -> str:
    """Per-layer self-time table: set-up and mean traced pass, with shares."""
    lines = [
        f"per-layer self time, {workload} (mean traced pass wall {wall_s:.4f} s)",
        f"  {'layer':<18} {'setup s':>10} {'pass s':>10} {'pass %':>7}",
    ]
    for layer in LAYERS:
        share = 100.0 * pass_layers[layer] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"  {layer:<18} {setup_layers.get(layer, 0.0):>10.4f} "
            f"{pass_layers[layer]:>10.4f} {share:>6.1f}%"
        )
    return "\n".join(lines)
