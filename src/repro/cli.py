"""Command-line interface for the REAP-cache reproduction.

One executable, several sub-commands, each regenerating a piece of the
paper's evaluation and printing it as a fixed-width text table (optionally
also exporting CSV/JSON):

* ``repro-reap table1``   — Table I, the evaluated cache configuration.
* ``repro-reap example``  — the Section III-B / IV worked example.
* ``repro-reap fig3``     — concealed-read characterisation (Fig. 3).
* ``repro-reap fig5``     — MTTF improvement per workload (Fig. 5).
* ``repro-reap fig6``     — dynamic-energy overhead per workload (Fig. 6).
* ``repro-reap overheads``— area and access-time reports (Section V-B).
* ``repro-reap workloads``— list the available SPEC-named profiles.
* ``repro-reap campaign`` — run a (workload × scheme × parameter) campaign
  over a persistent result store, fanned out over worker processes
  (``--jobs``) or remote workers (``--backend tcp://HOST:PORT``);
  re-running skips completed jobs.
* ``repro-reap worker``   — execute jobs pulled from a campaign
  coordinator (the other half of ``--backend tcp://...``).
* ``repro-reap store``    — result-store tools: ``merge`` combines
  per-machine stores, ``diff`` compares two stores job by job.
* ``repro-reap stats``    — aggregate a ``--telemetry`` JSONL file into
  per-phase/per-scheme time breakdowns, campaign rollups and distributed
  worker health.

The interface is intentionally thin: it parses arguments, builds
:class:`repro.sim.ExperimentSettings`, calls the analysis builders and prints
the rendered output, so everything it does is equally reachable from Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis import (
    build_area_table,
    build_figure3,
    build_figure5,
    build_figure6,
    build_latency_table,
    build_table1,
    numeric_example,
    render_area_report,
    render_figure3,
    render_figure5,
    render_figure6,
    render_latency_report,
    render_numeric_example,
    render_table1,
)
from .analysis.export import figure3_to_csv, figure5_to_csv, figure6_to_csv
from .errors import CampaignError
from .sim import ExperimentSettings, format_table
from .workloads import FIGURE3_WORKLOADS, all_profiles, get_profile


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    return ExperimentSettings(
        num_accesses=args.accesses,
        p_cell=args.p_cell,
        ones_count=args.ones,
        seed=args.seed,
        trace_file=getattr(args, "trace_file", None),
        segment_accesses=getattr(args, "segment_accesses", None),
    )


def _add_simulation_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--accesses",
        type=int,
        default=50_000,
        help="L2 accesses to simulate per workload (default: 50000)",
    )
    parser.add_argument(
        "--p-cell",
        type=float,
        default=1e-8,
        dest="p_cell",
        help="per-read, per-cell disturbance probability (default: 1e-8)",
    )
    parser.add_argument(
        "--ones",
        type=int,
        default=100,
        help="'1' cells per 512-bit block (default: 100, the paper's example)",
    )
    parser.add_argument("--seed", type=int, default=1, help="random seed (default: 1)")
    parser.add_argument(
        "--trace-file",
        type=str,
        default=None,
        dest="trace_file",
        help=(
            "replay this trace file instead of generating traces (binary, "
            "native text, din or lackey format, auto-detected); "
            "--accesses/--seed then no longer shape the access stream"
        ),
    )
    parser.add_argument(
        "--segment-accesses",
        type=int,
        default=None,
        dest="segment_accesses",
        help=(
            "replay in segments of this many accesses (bounded memory, "
            "bit-identical to whole-trace replay; default: whole trace "
            "for in-memory traces, 1Mi accesses for --trace-file)"
        ),
    )
    parser.add_argument(
        "--csv", type=str, default=None, help="also write the series to this CSV file"
    )


def _cmd_table1(_args: argparse.Namespace) -> int:
    print(render_table1(build_table1()))
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    example = numeric_example(p_cell=args.p_cell, num_ones=args.ones, num_reads=args.reads)
    print(render_numeric_example(example))
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    workloads = args.workloads or list(FIGURE3_WORKLOADS)
    for workload in workloads:
        series = build_figure3(workload, settings=settings)
        print(render_figure3(series))
        print()
        if args.csv:
            path = figure3_to_csv(series, f"{args.csv.rstrip('.csv')}_{workload}.csv")
            print(f"[wrote {path}]")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    workloads = args.workloads or None
    data = build_figure5(workloads=workloads, settings=settings)
    print(render_figure5(data))
    if args.csv:
        print(f"[wrote {figure5_to_csv(data, args.csv)}]")
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    workloads = args.workloads or None
    data = build_figure6(workloads=workloads, settings=settings)
    print(render_figure6(data))
    if args.csv:
        print(f"[wrote {figure6_to_csv(data, args.csv)}]")
    return 0


def _cmd_overheads(_args: argparse.Namespace) -> int:
    print(render_area_report(build_area_table()))
    print()
    print(render_latency_report(build_latency_table()))
    return 0


def _parse_sweep_value(text: str) -> object:
    """Parse one swept value: int, float, bool, ``none``, or bare string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def _parse_sweep_arguments(specs: Sequence[str]) -> tuple[tuple[str, tuple], ...]:
    """Parse repeated ``--sweep PARAM=V1,V2,...`` arguments."""
    sweep = []
    for item in specs:
        parameter, separator, values_text = item.partition("=")
        if not separator or not parameter or not values_text:
            raise CampaignError(
                f"--sweep expects PARAM=V1,V2,..., got {item!r}"
            )
        values = tuple(_parse_sweep_value(v) for v in values_text.split(","))
        sweep.append((parameter, values))
    return tuple(sweep)


def _campaign_telemetry_scope(args: argparse.Namespace, total_jobs: int, name: str):
    """Build the campaign's telemetry scope from the CLI flags.

    Composes the durable file sink (``--telemetry PATH``) with the
    process-local progress renderer (line-per-job by default, a live
    status line under ``--progress``, nothing under ``--quiet``) so both
    consume the same event stream.  Returns a context manager; a no-op one
    when every consumer is disabled.
    """
    from contextlib import nullcontext

    from .telemetry import FileSink, MultiSink, ProgressRenderer, telemetry

    sinks = []
    if args.telemetry:
        sinks.append(FileSink(args.telemetry))
    if not args.quiet:
        sinks.append(ProgressRenderer(total=total_jobs, live=args.progress))
    if not sinks:
        return nullcontext()
    return telemetry(MultiSink(sinks), campaign=name)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignSpec,
        TCPBackend,
        campaign_summary_to_csv,
        missing_jobs,
        open_store,
        render_campaign_summary,
        run_campaign,
    )

    settings = _settings_from_args(args)
    workloads = tuple(args.workloads) or tuple(p.name for p in all_profiles())
    spec = CampaignSpec(
        name=args.name,
        workloads=workloads,
        base_settings=settings,
        baseline=args.baseline,
        alternatives=tuple(args.schemes.split(",")),
        sweep=_parse_sweep_arguments(args.sweep),
    )
    store = open_store(args.store, shard_width=args.shard_width)
    if not args.quiet:
        print(
            f"campaign {spec.name!r}: {spec.num_jobs} jobs "
            f"({len(workloads)} workloads x {len(spec.points())} points), "
            f"{spec.num_jobs - len(missing_jobs(spec, store))} already in {store.path}"
        )

    # The telemetry scope opens before the backend is built: a TCP
    # coordinator captures the active session at construction so its
    # handler threads emit lease/result/frame events into it.
    with _campaign_telemetry_scope(args, spec.num_jobs, spec.name):
        backend = args.backend
        if isinstance(backend, str) and backend.startswith("tcp://"):
            checkpoint = args.checkpoint
            if checkpoint is None:
                # Default: checkpoint beside the store, so --resume can
                # find it without extra flags.
                checkpoint = getattr(store, "checkpoint_path", None)
            elif checkpoint.lower() in ("off", "none"):
                checkpoint = None
            backend = TCPBackend(
                backend,
                lease_timeout_s=args.lease_timeout,
                max_attempts=args.max_attempts,
                idle_timeout_s=args.idle_timeout,
                auth_key=args.auth_key,
                quarantine=args.quarantine,
                checkpoint=checkpoint,
            )
            if args.resume:
                resumed = backend.resume_from_checkpoint(store)
                print(f"resumed {resumed} unfinished job(s) from {checkpoint}")
            print(
                f"coordinator listening on {backend.address}; start workers with:\n"
                f"  repro-reap worker {backend.address}"
            )
        elif args.resume:
            raise CampaignError(
                "--resume requires a tcp:// backend (checkpoints are a "
                "coordinator feature)"
            )

        result = run_campaign(
            spec,
            store=store,
            jobs=args.jobs,
            engine=args.engine,
            backend=backend,
            artifact_cache=args.artifact_cache,
        )
    print()
    print(render_campaign_summary(result))
    if args.csv:
        print(f"[wrote {campaign_summary_to_csv(result, args.csv)}]")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import os
    from contextlib import nullcontext

    from .campaign import run_worker, run_worker_pool
    from .campaign.distributed import default_worker_id
    from .workloads.artifacts import ARTIFACT_CACHE_ENV

    if args.artifact_cache is not None:
        # Workers resolve the environment ahead of the payload field, so
        # the flag overrides whatever directory the coordinator chose
        # (pool worker processes inherit the environment).
        os.environ[ARTIFACT_CACHE_ENV] = args.artifact_cache

    if args.jobs > 1:
        from .telemetry import telemetry

        # The pool initializer re-opens the sink per worker process with a
        # per-process worker id; the parent scope carries the file spec.
        scope = telemetry(args.telemetry) if args.telemetry else nullcontext()
        with scope:
            executed = run_worker_pool(
                args.address,
                args.jobs,
                max_jobs=args.max_jobs,
                connect_retry_s=args.connect_retry,
                reconnect_timeout_s=args.reconnect_timeout,
                auth_key=args.auth_key,
            )
        print(f"workers executed {sum(executed)} jobs ({executed})")
    else:
        from .telemetry import telemetry

        worker_id = args.worker_id or default_worker_id()
        scope = (
            telemetry(args.telemetry, worker=worker_id)
            if args.telemetry
            else nullcontext()
        )
        with scope:
            executed = run_worker(
                args.address,
                worker_id=worker_id,
                max_jobs=args.max_jobs,
                connect_retry_s=args.connect_retry,
                reconnect_timeout_s=args.reconnect_timeout,
                auth_key=args.auth_key,
            )
        print(f"worker executed {executed} jobs")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .telemetry import load_telemetry_stats, render_telemetry_stats

    print(render_telemetry_stats(load_telemetry_stats(args.path)))
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    from .campaign import merge_stores, open_store

    report = merge_stores(open_store(args.destination), args.sources)
    print(
        f"merged {len(args.sources)} stores into {args.destination}: "
        f"{report.added} added, {report.duplicates} duplicate, "
        f"{report.total} total entries"
    )
    return 0


def _cmd_store_diff(args: argparse.Namespace) -> int:
    from .campaign import diff_stores, render_store_diff

    diff = diff_stores(args.store_a, args.store_b)
    print(render_store_diff(diff, name_a=args.store_a, name_b=args.store_b))
    return 0 if diff.stores_match else 1


def _cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [
        [
            profile.name,
            profile.write_fraction,
            profile.stable_traffic_share,
            profile.cold_gap_median,
            profile.description[:60],
        ]
        for profile in all_profiles()
    ]
    print(
        format_table(
            ["workload", "write fraction", "stable share", "cold gap median", "description"],
            rows,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-reap",
        description="Regenerate the REAP-cache paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table1", help="print Table I").set_defaults(handler=_cmd_table1)

    example = subparsers.add_parser("example", help="Section III-B / IV worked example")
    example.add_argument("--p-cell", type=float, default=1e-8, dest="p_cell")
    example.add_argument("--ones", type=int, default=100)
    example.add_argument("--reads", type=int, default=50)
    example.set_defaults(handler=_cmd_example)

    fig3 = subparsers.add_parser("fig3", help="concealed-read characterisation (Fig. 3)")
    _add_simulation_arguments(fig3)
    fig3.add_argument("workloads", nargs="*", help="workloads (default: the paper's four)")
    fig3.set_defaults(handler=_cmd_fig3)

    fig5 = subparsers.add_parser("fig5", help="MTTF improvement per workload (Fig. 5)")
    _add_simulation_arguments(fig5)
    fig5.add_argument("workloads", nargs="*", help="workloads (default: the full suite)")
    fig5.set_defaults(handler=_cmd_fig5)

    fig6 = subparsers.add_parser("fig6", help="dynamic-energy overhead per workload (Fig. 6)")
    _add_simulation_arguments(fig6)
    fig6.add_argument("workloads", nargs="*", help="workloads (default: the full suite)")
    fig6.set_defaults(handler=_cmd_fig6)

    subparsers.add_parser(
        "overheads", help="area and access-time overhead reports (Section V-B)"
    ).set_defaults(handler=_cmd_overheads)

    subparsers.add_parser(
        "workloads", help="list the available SPEC-named workload profiles"
    ).set_defaults(handler=_cmd_workloads)

    campaign = subparsers.add_parser(
        "campaign",
        help="run a resumable (workload x scheme x parameter) campaign",
    )
    _add_simulation_arguments(campaign)
    campaign.add_argument(
        "workloads", nargs="*", help="workloads (default: the full suite)"
    )
    campaign.add_argument(
        "--name", type=str, default="cli-campaign", help="campaign name for reports"
    )
    campaign.add_argument(
        "--store",
        type=str,
        default="campaign_store.jsonl",
        help="result store; a .jsonl path is a single-file store, anything "
        "else a sharded store directory (one JSONL shard per key prefix, "
        "safe for concurrent writers); completed jobs are skipped on "
        "re-runs (default: campaign_store.jsonl)",
    )
    campaign.add_argument(
        "--shard-width",
        type=int,
        default=None,
        help="key-prefix hex digits per shard when creating a sharded "
        "store (default: 2)",
    )
    campaign.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to fan jobs out over (default: 1, serial)",
    )
    campaign.add_argument(
        "--backend",
        type=str,
        default="local",
        help="execution backend: 'local' (in-process / --jobs pool, the "
        "default), 'serial', or tcp://HOST:PORT to serve the job queue to "
        "remote 'repro-reap worker' processes (PORT 0 binds an ephemeral "
        "port and prints it)",
    )
    campaign.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help="tcp backend: seconds a handed-out job may go unheartbeated "
        "before it is requeued for another worker (default: 30)",
    )
    campaign.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="tcp backend: fail when no job completes for this many "
        "seconds (default: wait for workers forever)",
    )
    campaign.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="tcp backend: hand-outs per job before it is declared failed "
        "(default: 3)",
    )
    campaign.add_argument(
        "--quarantine",
        action="store_true",
        help="tcp backend: park jobs that exhaust --max-attempts on a "
        "poison list (reported at the end and via 'repro-reap stats') "
        "instead of failing the whole campaign",
    )
    campaign.add_argument(
        "--auth-key",
        type=str,
        default=None,
        metavar="KEY",
        help="tcp backend: shared secret HMAC-signing every protocol frame "
        "(also settable via REPRO_AUTH_KEY); unsigned or forged frames are "
        "rejected, so the coordinator may listen on shared networks",
    )
    campaign.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        metavar="PATH",
        help="tcp backend: periodically snapshot the coordinator's job "
        "queue and lease table to this file (default: beside the store; "
        "'off' disables); --resume restarts a killed campaign from it",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="tcp backend: before serving, resubmit the checkpointed jobs "
        "that have no entry in the result store (crash recovery for a "
        "killed coordinator)",
    )
    campaign.add_argument(
        "--baseline",
        type=str,
        default="conventional",
        help="baseline scheme (default: conventional)",
    )
    campaign.add_argument(
        "--schemes",
        type=str,
        default="reap",
        help="comma-separated alternative schemes (default: reap)",
    )
    campaign.add_argument(
        "--engine",
        type=str,
        choices=["reference", "fast", "auto"],
        default="auto",
        help="simulation engine: the batched fast path ('auto', the default, "
        "covers every scheme and replacement policy and warns before falling "
        "back to the reference loop on custom caches), 'fast' (error on "
        "unsupported), or the per-record 'reference' loop; engines are "
        "numerically identical",
    )
    campaign.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="PARAM=V1,V2,...",
        help="sweep an ExperimentSettings field over values (repeatable; "
        "the campaign runs the cross-product of all sweeps); dotted paths "
        "reach nested configs, e.g. l2_config.associativity=4,8 or "
        "l2_config.ecc.kind=parity,hamming-sec",
    )
    campaign.add_argument(
        "--artifact-cache",
        type=str,
        default=None,
        metavar="DIR",
        help="cache decoded workload traces in this directory so every "
        "sweep point reuses them (created on demand; also settable via "
        "REPRO_ARTIFACT_CACHE, 'off' disables); purely operational — "
        "results are byte-identical with the cache cold, warm or disabled, "
        "and the knob never enters job identity",
    )
    campaign.add_argument(
        "--telemetry",
        type=str,
        default=None,
        metavar="PATH",
        help="append structured telemetry events (kernel-phase spans, "
        "per-job metrics, coordinator/worker health) to this JSONL file; "
        "aggregate it afterwards with 'repro-reap stats PATH'",
    )
    campaign.add_argument(
        "--progress",
        action="store_true",
        help="live single-line progress on stderr instead of one line per job",
    )
    campaign.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-job progress output (summary still prints)",
    )
    campaign.set_defaults(handler=_cmd_campaign)

    worker = subparsers.add_parser(
        "worker",
        help="pull and execute campaign jobs from a tcp:// coordinator",
    )
    worker.add_argument(
        "address", type=str, help="coordinator address, e.g. tcp://10.0.0.5:7654"
    )
    worker.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to run on this machine (default: 1)",
    )
    worker.add_argument(
        "--worker-id",
        type=str,
        default=None,
        help="identifier reported to the coordinator (default: hostname-pid)",
    )
    worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="stop after executing this many jobs per process (default: "
        "run until the campaign completes)",
    )
    worker.add_argument(
        "--connect-retry",
        type=float,
        default=30.0,
        help="seconds to keep retrying the first coordinator contact "
        "(default: 30; lets workers start before the coordinator)",
    )
    worker.add_argument(
        "--reconnect-timeout",
        type=float,
        default=5.0,
        help="seconds one continuous coordinator outage may last (after "
        "first contact) before this worker gives up; outages inside the "
        "budget are ridden out with exponential backoff (default: 5; "
        "raise it to survive coordinator restarts)",
    )
    worker.add_argument(
        "--auth-key",
        type=str,
        default=None,
        metavar="KEY",
        help="shared secret HMAC-signing every protocol frame; must match "
        "the coordinator's --auth-key (also settable via REPRO_AUTH_KEY)",
    )
    worker.add_argument(
        "--telemetry",
        type=str,
        default=None,
        metavar="PATH",
        help="append this worker's telemetry events (job spans, kernel "
        "phases, protocol frames) to this JSONL file",
    )
    worker.add_argument(
        "--artifact-cache",
        type=str,
        default=None,
        metavar="DIR",
        help="cache decoded workload traces in this local directory "
        "(overrides any cache directory the coordinator put in the "
        "payloads; 'off' disables caching on this machine)",
    )
    worker.set_defaults(handler=_cmd_worker)

    stats = subparsers.add_parser(
        "stats",
        help="aggregate a telemetry JSONL file into per-phase/per-scheme "
        "time breakdowns, campaign rollups and distributed worker health",
    )
    stats.add_argument("path", type=str, help="telemetry JSONL file to aggregate")
    stats.set_defaults(handler=_cmd_stats)

    store = subparsers.add_parser(
        "store", help="result-store tools: merge and diff"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    merge = store_commands.add_parser(
        "merge",
        help="merge source stores into a destination store "
        "(conflicting payloads for one key abort the merge)",
    )
    merge.add_argument("destination", type=str, help="store to merge into")
    merge.add_argument(
        "sources", nargs="+", type=str, help="stores to merge from"
    )
    merge.set_defaults(handler=_cmd_store_merge)

    diff = store_commands.add_parser(
        "diff",
        help="compare two stores job by job (exit code 1 when they differ)",
    )
    diff.add_argument("store_a", type=str, help="first store")
    diff.add_argument("store_b", type=str, help="second store")
    diff.set_defaults(handler=_cmd_store_diff)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Validate workload names early so typos fail with a clear message.
    workloads = getattr(args, "workloads", None)
    if workloads:
        for name in workloads:
            get_profile(name)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - module execution convenience
    sys.exit(main())
