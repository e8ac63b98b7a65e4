"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_sweep_arguments, _parse_sweep_value, build_parser, main
from repro.errors import CampaignError


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig5_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.accesses == 50_000
        assert args.p_cell == 1e-8
        assert args.workloads == []

    def test_example_arguments(self):
        args = build_parser().parse_args(["example", "--reads", "100"])
        assert args.reads == 100


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "L2" in out and "stt-mram" in out

    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "Eq. 5" in out

    def test_overheads(self, capsys):
        assert main(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "Area overhead (%)" in out and "REAP" in out

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "perlbench" in out and "mcf" in out

    def test_fig5_small_run(self, capsys):
        assert main(["fig5", "--accesses", "2000", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "average=" in out

    def test_fig6_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "fig6.csv"
        assert main(["fig6", "--accesses", "2000", "--csv", str(csv_path), "gcc"]) == 0
        assert csv_path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_fig3_small_run(self, capsys):
        assert main(["fig3", "--accesses", "3000", "perlbench"]) == 0
        out = capsys.readouterr().out
        assert "perlbench" in out and "Failure rate" in out

    def test_unknown_workload_rejected(self, capsys):
        assert main(["fig5", "--accesses", "1000", "not-a-benchmark"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-reap: error: ")
        assert "not-a-benchmark" in line

    def test_project_errors_exit_2_without_a_traceback(self, capsys):
        assert main(["fig5", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-reap: error: ") and "Traceback" not in err

    def test_fig3_csv_keeps_the_stem(self, tmp_path, capsys):
        """``--csv results.csv`` names one file per panel
        ``results_<workload>.csv``: only the ``.csv`` suffix is dropped."""
        stem = tmp_path / "results"
        argv = ["fig3", "--accesses", "3000", "--csv", f"{stem}.csv", "perlbench"]
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results_perlbench.csv"]
        assert f"[wrote {stem}_perlbench.csv]" in capsys.readouterr().out


class TestCampaignCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.jobs == 1
        assert args.store == "campaign_store.jsonl"
        assert args.schemes == "reap"
        assert args.sweep == []

    def test_sweep_value_parsing(self):
        assert _parse_sweep_value("3") == 3
        assert _parse_sweep_value("1e-8") == 1e-8
        assert _parse_sweep_value("true") is True
        assert _parse_sweep_value("none") is None
        assert _parse_sweep_value("lru") == "lru"

    def test_sweep_argument_parsing(self):
        sweep = _parse_sweep_arguments(["p_cell=1e-9,1e-8", "ones_count=50,100"])
        assert sweep == (("p_cell", (1e-9, 1e-8)), ("ones_count", (50, 100)))

    def test_malformed_sweep_argument_rejected(self):
        with pytest.raises(CampaignError):
            _parse_sweep_arguments(["p_cell"])

    def test_backend_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.backend == "local"
        assert args.shard_width is None
        assert args.lease_timeout == 30.0

    def test_dotted_sweep_campaign(self, tmp_path, capsys):
        argv = [
            "campaign", "gcc",
            "--accesses", "800",
            "--store", str(tmp_path / "store.jsonl"),
            "--sweep", "l2_config.associativity=4,8",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "l2_config.associativity=4" in out
        assert "2 jobs: 2 executed" in out

    def test_sharded_store_path(self, tmp_path, capsys):
        argv = [
            "campaign", "gcc",
            "--accesses", "800",
            "--store", str(tmp_path / "store_dir"),
            "--shard-width", "1",
        ]
        assert main(argv) == 0
        assert (tmp_path / "store_dir" / "store.json").exists()
        assert main(argv) == 0
        assert "1 cached" in capsys.readouterr().out

    def test_campaign_run_and_resume(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        argv = [
            "campaign", "gcc",
            "--accesses", "1000",
            "--store", str(store),
            "--csv", str(tmp_path / "summary.csv"),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "1 jobs" in captured.out and "1 executed" in captured.out
        # Per-job progress is telemetry-driven and goes to stderr, keeping
        # stdout clean for the summary tables.
        assert "ran in" in captured.err
        assert store.exists()
        assert (tmp_path / "summary.csv").exists()
        # Second invocation: everything is served from the store.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "0 executed" in captured.out and "1 cached" in captured.out
        assert "cached" in captured.err


class TestTelemetryCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.telemetry is None
        assert args.progress is False
        assert args.quiet is False

    def test_campaign_telemetry_and_stats(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        argv = [
            "campaign", "gcc",
            "--accesses", "800",
            "--store", str(tmp_path / "store.jsonl"),
            "--telemetry", str(events),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert events.exists()
        assert main(["stats", str(events)]) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out
        assert "campaign" in out and "engine selections" in out
        assert "accesses/s" in out

    def test_quiet_suppresses_progress_and_header(self, tmp_path, capsys):
        argv = [
            "campaign", "gcc",
            "--accesses", "800",
            "--store", str(tmp_path / "store.jsonl"),
            "--quiet",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "jobs on" not in captured.out  # header line suppressed
        assert "1 executed" in captured.out  # summary tables still print

    def test_quiet_still_writes_telemetry(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        argv = [
            "campaign", "gcc",
            "--accesses", "800",
            "--store", str(tmp_path / "store.jsonl"),
            "--quiet",
            "--telemetry", str(events),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert events.exists() and events.stat().st_size > 0

    def test_live_progress_mode(self, tmp_path, capsys):
        argv = [
            "campaign", "gcc",
            "--accesses", "800",
            "--store", str(tmp_path / "store.jsonl"),
            "--progress",
        ]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "\r" in err and "jobs 1/1" in err
        assert "campaign finished: 1 jobs" in err

    def test_stats_on_missing_file_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert main(["stats", str(missing)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("repro-reap: error: ") and str(missing) in line

    @pytest.mark.parametrize(
        "line", ['{"kind": "span", "name": "kernel.pass1", "duration_s": "x"}', "[1, 2]"]
    )
    def test_stats_on_malformed_line_fails_cleanly(self, tmp_path, capsys, line):
        path = tmp_path / "events.jsonl"
        path.write_text(line + "\n")
        assert main(["stats", str(path)]) == 2
        (error,) = capsys.readouterr().err.splitlines()
        assert error.startswith("repro-reap: error: ") and "line 1" in error


class TestStoreCommands:
    def run_small_campaign(self, store_path, workload="gcc", accesses="800"):
        assert (
            main(
                [
                    "campaign", workload,
                    "--accesses", accesses,
                    "--store", str(store_path),
                ]
            )
            == 0
        )

    def test_merge_and_diff(self, tmp_path, capsys):
        self.run_small_campaign(tmp_path / "a.jsonl", "gcc")
        self.run_small_campaign(tmp_path / "b.jsonl", "mcf")
        assert (
            main(
                [
                    "store", "merge", str(tmp_path / "merged.jsonl"),
                    str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 added" in out and "2 total" in out
        # merged vs a: b's entry is extra -> exit code 1.
        assert (
            main(
                ["store", "diff", str(tmp_path / "merged.jsonl"), str(tmp_path / "a.jsonl")]
            )
            == 1
        )
        assert "only in" in capsys.readouterr().out
        # identical stores -> exit code 0.
        self.run_small_campaign(tmp_path / "a2.jsonl", "gcc")
        assert (
            main(["store", "diff", str(tmp_path / "a.jsonl"), str(tmp_path / "a2.jsonl")])
            == 0
        )
        assert "1 identical" in capsys.readouterr().out

    def test_worker_parser(self):
        args = build_parser().parse_args(["worker", "tcp://127.0.0.1:7654"])
        assert args.address == "tcp://127.0.0.1:7654"
        assert args.jobs == 1
        assert args.connect_retry == 30.0

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])
