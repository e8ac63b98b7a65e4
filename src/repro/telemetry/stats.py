"""Offline aggregation of telemetry event streams (``repro-reap stats``).

Turns a JSONL telemetry file (or any iterable of event dicts) into the
rollups an operator actually wants: per-phase/per-scheme kernel time
breakdowns, campaign throughput and cache-hit ratios, engine-fallback
reasons, and distributed coordinator/worker health.  This is the offline
precursor to the ROADMAP's HTTP status API — the aggregation is pure and
incremental, so a live endpoint can reuse :class:`TelemetryAggregator`
verbatim over a tailing reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..errors import TelemetryError
from .core import read_numbered_events

#: Span names that are kernel phases, in display (pipeline) order.
_PHASE_ORDER = (
    "kernel.segment",
    "kernel.decode",
    "kernel.l1_filter",
    "kernel.replay",
    "kernel.pass1",
    "kernel.pass2",
    "reference.replay",
)

#: Kernel spans whose ``memo`` field reports a kernel-memo outcome.
_MEMO_SPANS = ("kernel.l1_filter", "kernel.pass1", "kernel.pass2")


@dataclass
class SpanStats:
    """Rollup of one span name (optionally per scheme): count and durations."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        self.min_s = min(self.min_s, duration_s)
        self.max_s = max(self.max_s, duration_s)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass
class CampaignStats:
    """Rollup of campaign-level job events and run spans."""

    runs: int = 0
    elapsed_s: float = 0.0
    jobs: int = 0
    executed: int = 0
    cached: int = 0
    accesses: int = 0
    job_elapsed_s: float = 0.0

    @property
    def cache_hit_ratio(self) -> float:
        return self.cached / self.jobs if self.jobs else 0.0

    @property
    def accesses_per_s(self) -> float:
        return self.accesses / self.job_elapsed_s if self.job_elapsed_s > 0 else 0.0


@dataclass
class DistributedStats:
    """Rollup of coordinator health events and wire-level frame counters."""

    lease_grants: int = 0
    lease_renewals: int = 0
    lease_expiries: int = 0
    requeues: int = 0
    results: int = 0
    errors: int = 0
    checkpoints: int = 0
    reconnects: int = 0
    poisoned: int = 0
    auth_rejects: int = 0
    frame_rejects: int = 0
    workers: set[str] = field(default_factory=set)
    lost_workers: set[str] = field(default_factory=set)
    frames: dict[str, int] = field(default_factory=dict)
    bytes: dict[str, int] = field(default_factory=dict)
    worker_elapsed_s: float = 0.0
    observed_elapsed_s: float = 0.0

    @property
    def seen(self) -> bool:
        return bool(
            self.lease_grants
            or self.results
            or self.frames
            or self.workers
        )

    @property
    def dispatch_overhead_s(self) -> float:
        """Coordinator-observed time minus worker-reported compute time."""
        return max(0.0, self.observed_elapsed_s - self.worker_elapsed_s)


@dataclass
class ArtifactCacheStats:
    """Rollup of artifact-cache counters (``cache.artifact`` emits)."""

    #: (artifact kind, outcome) -> emit count.
    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    #: (artifact kind, outcome) -> summed payload bytes.
    bytes: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def seen(self) -> bool:
        return bool(self.counts)

    def _outcome_total(self, outcome: str) -> int:
        return sum(
            count for (_, out), count in self.counts.items() if out == outcome
        )

    @property
    def hits(self) -> int:
        return self._outcome_total("hit")

    @property
    def misses(self) -> int:
        """Lookups that found nothing (unreadable artifacts count too)."""
        return self._outcome_total("miss") + self._outcome_total("error")

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    @property
    def bytes_saved(self) -> int:
        """Artifact bytes served from the cache instead of being recomputed."""
        return sum(
            total for (_, out), total in self.bytes.items() if out == "hit"
        )


@dataclass
class TelemetryStats:
    """Everything :func:`aggregate_telemetry` extracts from an event stream."""

    total_events: int = 0
    #: (span name, scheme or "") -> rollup, schemes taken from span fields.
    spans: dict[tuple[str, str], SpanStats] = field(default_factory=dict)
    #: counter name -> (emit count, summed value).
    counters: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: gauge name -> (emit count, last value, min, max).
    gauges: dict[str, tuple[int, float, float, float]] = field(default_factory=dict)
    #: Engine label -> selection count, from ``sim.engine`` events (logs
    #: written before the fast path had a single kernel label it
    #: ``engine/kernel``).
    engine_selections: dict[str, int] = field(default_factory=dict)
    #: fallback reason -> occurrence count, from ``engine.fallback`` events.
    fallbacks: dict[str, int] = field(default_factory=dict)
    #: (kernel pass, memo outcome) -> count, from the ``memo`` field of the
    #: ``kernel.l1_filter``/``kernel.pass1``/``kernel.pass2`` spans (outcome
    #: hit/miss/bypass).
    kernel_memo: dict[tuple[str, str], int] = field(default_factory=dict)
    campaign: CampaignStats = field(default_factory=CampaignStats)
    distributed: DistributedStats = field(default_factory=DistributedStats)
    artifact_cache: ArtifactCacheStats = field(default_factory=ArtifactCacheStats)


class TelemetryAggregator:
    """Incrementally fold telemetry events into :class:`TelemetryStats`."""

    def __init__(self) -> None:
        self.stats = TelemetryStats()

    def add(self, event: Mapping[str, Any]) -> None:
        """Fold one event dict into the running stats (unknown kinds ignored).

        Raises:
            TelemetryError: if a field the fold reads has the wrong type.
        """
        try:
            self._add(event)
        except (TypeError, ValueError, OverflowError) as exc:
            raise TelemetryError(
                f"malformed {event.get('kind')} event {event.get('name')!r}: {exc}"
            ) from exc

    def _add(self, event: Mapping[str, Any]) -> None:
        stats = self.stats
        stats.total_events += 1
        kind = event.get("kind")
        name = str(event.get("name", ""))
        if kind == "span":
            duration = float(event.get("duration_s", 0.0))
            scheme = str(event.get("scheme", "") or "")
            key = (name, scheme)
            rollup = stats.spans.get(key)
            if rollup is None:
                rollup = stats.spans[key] = SpanStats()
            rollup.add(duration)
            self._fold_span(name, event, duration)
        elif kind == "counter":
            value = float(event.get("value", 1))
            count, total = stats.counters.get(name, (0, 0.0))
            stats.counters[name] = (count + 1, total + value)
            self._fold_counter(name, event, value)
        elif kind == "gauge":
            value = float(event.get("value", 0.0))
            count, _last, lo, hi = stats.gauges.get(
                name, (0, value, value, value)
            )
            stats.gauges[name] = (count + 1, value, min(lo, value), max(hi, value))
        elif kind == "event":
            self._fold_event(name, event)

    def add_all(self, events: Iterable[Mapping[str, Any]]) -> "TelemetryAggregator":
        for event in events:
            self.add(event)
        return self

    # -- per-name folds ----------------------------------------------------

    def _fold_span(
        self, name: str, event: Mapping[str, Any], duration: float
    ) -> None:
        campaign = self.stats.campaign
        if name == "campaign.run":
            campaign.runs += 1
            campaign.elapsed_s += duration
        elif name == "job.execute":
            campaign.job_elapsed_s += duration
            campaign.accesses += int(event.get("accesses", 0) or 0)
        elif name in _MEMO_SPANS and "memo" in event:
            memo = self.stats.kernel_memo
            key = (name.removeprefix("kernel."), str(event["memo"]))
            memo[key] = memo.get(key, 0) + 1

    def _fold_counter(
        self, name: str, event: Mapping[str, Any], value: float
    ) -> None:
        if name == "net.frame":
            distributed = self.stats.distributed
            direction = str(event.get("direction", "?"))
            distributed.frames[direction] = distributed.frames.get(direction, 0) + 1
            distributed.bytes[direction] = distributed.bytes.get(
                direction, 0
            ) + int(value)
        elif name == "cache.artifact":
            artifact = self.stats.artifact_cache
            key = (
                str(event.get("artifact", "?")),
                str(event.get("outcome", "?")),
            )
            artifact.counts[key] = artifact.counts.get(key, 0) + 1
            artifact.bytes[key] = artifact.bytes.get(key, 0) + int(
                event.get("bytes", 0) or 0
            )

    def _fold_event(self, name: str, event: Mapping[str, Any]) -> None:
        stats = self.stats
        if name == "sim.engine":
            engine = str(event.get("engine", "?"))
            kernel = event.get("kernel")
            label = f"{engine}/{kernel}" if kernel else engine
            stats.engine_selections[label] = stats.engine_selections.get(label, 0) + 1
        elif name == "engine.fallback":
            reason = str(event.get("reason", "unspecified"))
            stats.fallbacks[reason] = stats.fallbacks.get(reason, 0) + 1
        elif name == "campaign.job":
            stats.campaign.jobs += 1
            if event.get("cached"):
                stats.campaign.cached += 1
            else:
                stats.campaign.executed += 1
        elif name == "worker.reconnect":
            stats.distributed.reconnects += 1
            worker = event.get("worker")
            if worker:
                stats.distributed.workers.add(str(worker))
        elif name == "job.poisoned":
            stats.distributed.poisoned += 1
        elif name.startswith("coordinator."):
            self._fold_coordinator(name, event)

    def _fold_coordinator(self, name: str, event: Mapping[str, Any]) -> None:
        distributed = self.stats.distributed
        worker = event.get("worker")
        if worker:
            distributed.workers.add(str(worker))
        if name == "coordinator.lease_grant":
            distributed.lease_grants += 1
        elif name == "coordinator.lease_renew":
            distributed.lease_renewals += 1
        elif name == "coordinator.lease_expire":
            distributed.lease_expiries += 1
            distributed.requeues += 1
            if worker:
                distributed.lost_workers.add(str(worker))
        elif name == "coordinator.result":
            distributed.results += 1
            distributed.worker_elapsed_s += float(
                event.get("worker_elapsed_s", 0.0) or 0.0
            )
            distributed.observed_elapsed_s += float(
                event.get("observed_elapsed_s", 0.0) or 0.0
            )
        elif name == "coordinator.error":
            distributed.errors += 1
        elif name == "coordinator.checkpoint":
            distributed.checkpoints += 1
        elif name == "coordinator.auth_reject":
            distributed.auth_rejects += 1
        elif name == "coordinator.frame_reject":
            distributed.frame_rejects += 1


def aggregate_telemetry(events: Iterable[Mapping[str, Any]]) -> TelemetryStats:
    """Aggregate an iterable of event dicts into :class:`TelemetryStats`."""
    return TelemetryAggregator().add_all(events).stats


def load_telemetry_stats(path: str | Path) -> TelemetryStats:
    """Read a telemetry JSONL file and aggregate it in one pass."""
    aggregator = TelemetryAggregator()
    for number, event in read_numbered_events(path):
        try:
            aggregator.add(event)
        except TelemetryError as exc:
            raise TelemetryError(f"telemetry line {number} in {path}: {exc}") from exc
    return aggregator.stats


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _span_sort_key(item: tuple[tuple[str, str], SpanStats]) -> tuple[int, str, str]:
    (name, scheme), _ = item
    try:
        order = _PHASE_ORDER.index(name)
    except ValueError:
        order = len(_PHASE_ORDER)
    return (order, name, scheme)


def render_telemetry_stats(stats: TelemetryStats) -> str:
    """Render aggregated telemetry as fixed-width text report sections."""
    # Imported here so the instrumented simulation modules can import
    # repro.telemetry without pulling in (or cycling with) repro.sim.
    from ..sim.results import format_table

    sections: list[str] = [f"telemetry: {stats.total_events} events"]

    phase_rows = [
        [name, scheme or "-", s.count, s.total_s, s.mean_s * 1e3, s.max_s * 1e3]
        for (name, scheme), s in sorted(stats.spans.items(), key=_span_sort_key)
        if name != "campaign.run"
    ]
    if phase_rows:
        sections.append(
            "phase timings\n"
            + format_table(
                ["span", "scheme", "count", "total s", "mean ms", "max ms"],
                phase_rows,
            )
        )

    if stats.kernel_memo:
        rows = [
            [phase, outcome, count]
            for (phase, outcome), count in sorted(stats.kernel_memo.items())
        ]
        sections.append(
            "kernel memo\n" + format_table(["pass", "outcome", "replays"], rows)
        )

    campaign = stats.campaign
    if campaign.jobs or campaign.runs:
        rows = [
            ["campaign runs", campaign.runs],
            ["wall elapsed s", campaign.elapsed_s],
            ["jobs", campaign.jobs],
            ["executed", campaign.executed],
            ["cached", campaign.cached],
            ["cache-hit ratio", campaign.cache_hit_ratio],
            ["job compute s", campaign.job_elapsed_s],
            ["accesses", campaign.accesses],
            ["accesses/s", campaign.accesses_per_s],
        ]
        sections.append("campaign\n" + format_table(["metric", "value"], rows))

    if stats.engine_selections:
        rows = [
            [label, count]
            for label, count in sorted(stats.engine_selections.items())
        ]
        sections.append(
            "engine selections\n" + format_table(["engine/kernel", "runs"], rows)
        )

    if stats.fallbacks:
        rows = [
            [reason, count]
            for reason, count in sorted(
                stats.fallbacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        sections.append(
            "engine fallbacks\n" + format_table(["reason", "count"], rows)
        )

    distributed = stats.distributed
    if distributed.seen:
        rows = [
            ["workers seen", len(distributed.workers)],
            ["workers lost", len(distributed.lost_workers)],
            ["lease grants", distributed.lease_grants],
            ["lease renewals", distributed.lease_renewals],
            ["lease expiries (requeued)", distributed.lease_expiries],
            ["results", distributed.results],
            ["errors", distributed.errors],
            ["worker compute s", distributed.worker_elapsed_s],
            ["coordinator-observed s", distributed.observed_elapsed_s],
            ["dispatch overhead s", distributed.dispatch_overhead_s],
        ]
        # Robustness counters only appear when the feature fired, so a
        # healthy trusted-network run renders exactly as before.
        if distributed.checkpoints:
            rows.append(["checkpoints written", distributed.checkpoints])
        if distributed.reconnects:
            rows.append(["worker reconnect attempts", distributed.reconnects])
        if distributed.poisoned:
            rows.append(["jobs quarantined (poisoned)", distributed.poisoned])
        if distributed.auth_rejects:
            rows.append(["frames rejected (auth)", distributed.auth_rejects])
        if distributed.frame_rejects:
            rows.append(["frames rejected (malformed)", distributed.frame_rejects])
        for direction in sorted(distributed.frames):
            rows.append(
                [
                    f"frames {direction}",
                    f"{distributed.frames[direction]} "
                    f"({distributed.bytes.get(direction, 0)} bytes)",
                ]
            )
        sections.append(
            "distributed health\n" + format_table(["metric", "value"], rows)
        )

    artifact = stats.artifact_cache
    if artifact.seen:
        rows = [
            ["hits", artifact.hits],
            ["misses", artifact.misses],
            ["hit ratio", artifact.hit_ratio],
            ["bytes saved", artifact.bytes_saved],
        ]
        for (kind, outcome), count in sorted(artifact.counts.items()):
            rows.append(
                [
                    f"{kind} {outcome}",
                    f"{count} ({artifact.bytes.get((kind, outcome), 0)} bytes)",
                ]
            )
        sections.append(
            "artifact cache\n" + format_table(["metric", "value"], rows)
        )

    other_counters = {
        name: (count, total)
        for name, (count, total) in stats.counters.items()
        if name not in ("net.frame", "cache.artifact")
    }
    if other_counters:
        rows = [
            [name, count, total]
            for name, (count, total) in sorted(other_counters.items())
        ]
        sections.append(
            "counters\n" + format_table(["counter", "emits", "sum"], rows)
        )

    if stats.gauges:
        rows = [
            [name, count, last, lo, hi]
            for name, (count, last, lo, hi) in sorted(stats.gauges.items())
        ]
        sections.append(
            "gauges\n" + format_table(["gauge", "emits", "last", "min", "max"], rows)
        )

    return "\n\n".join(sections)
