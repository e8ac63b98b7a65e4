"""Tests for the telemetry core: sessions, sinks, spans, JSONL round-trips."""

import io
import json
import threading

import pytest

from repro.telemetry import (
    RESERVED_KEYS,
    FileSink,
    MemorySink,
    MultiSink,
    NullSink,
    ProgressRenderer,
    TelemetryError,
    activate,
    current,
    current_spec,
    emit_counter,
    emit_event,
    emit_gauge,
    enable_telemetry_for_process,
    enabled,
    read_events,
    span,
    telemetry,
)


class TestDisabledByDefault:
    def test_no_session_outside_a_scope(self):
        assert current() is None
        assert not enabled()
        assert current_spec() is None

    def test_emit_helpers_are_noops(self):
        # Nothing to assert against but "does not raise": there is no sink.
        emit_event("x.event", detail="ignored")
        emit_counter("x.counter", 3)
        emit_gauge("x.gauge", 1.5)

    def test_span_still_measures_without_emitting(self):
        with span("x.span") as timed:
            pass
        assert timed.duration_s >= 0.0

    def test_span_duration_usable_as_return_value(self):
        timed = span("x.span").start()
        timed.finish()
        assert isinstance(timed.duration_s, float)


class TestScopedSession:
    def test_scope_enables_and_restores(self):
        sink = MemorySink()
        assert not enabled()
        with telemetry(sink) as session:
            assert enabled()
            assert current() is session
        assert not enabled()

    def test_event_schema_reserved_keys(self):
        sink = MemorySink()
        with telemetry(sink, campaign="demo"):
            emit_event("sim.engine", engine="fast", kernel="soa")
        (event,) = sink.events
        assert event["kind"] == "event"
        assert event["name"] == "sim.engine"
        assert isinstance(event["ts"], float)
        assert isinstance(event["pid"], int)
        # Session context and site fields ride along as flat keys.
        assert event["campaign"] == "demo"
        assert event["engine"] == "fast" and event["kernel"] == "soa"

    def test_counter_and_gauge_values(self):
        sink = MemorySink()
        with telemetry(sink):
            emit_counter("net.frame", 128, direction="send")
            emit_gauge("queue.depth", 7)
        counter, gauge = sink.events
        assert counter["kind"] == "counter" and counter["value"] == 128
        assert gauge["kind"] == "gauge" and gauge["value"] == 7

    def test_span_emits_duration_and_added_fields(self):
        sink = MemorySink()
        with telemetry(sink):
            with span("kernel.pass1", scheme="reap") as timed:
                timed.add(accesses=1000)
        (event,) = sink.events
        assert event["kind"] == "span"
        assert event["name"] == "kernel.pass1"
        assert event["duration_s"] == timed.duration_s >= 0.0
        assert event["scheme"] == "reap" and event["accesses"] == 1000

    def test_span_captures_session_at_creation(self):
        sink = MemorySink()
        with telemetry(sink):
            timed = span("x.span").start()
        timed.finish()  # scope exited, but the span still reaches its sink
        assert [e["name"] for e in sink.events] == ["x.span"]

    def test_nested_scopes_restore_outer(self):
        outer, inner = MemorySink(), MemorySink()
        with telemetry(outer):
            emit_event("first")
            with telemetry(inner):
                emit_event("second")
            emit_event("third")
        assert [e["name"] for e in outer.events] == ["first", "third"]
        assert [e["name"] for e in inner.events] == ["second"]

    def test_memory_sink_is_not_inheritable(self):
        with telemetry(MemorySink()):
            assert current_spec() is None

    def test_unknown_target_rejected(self):
        with pytest.raises(TelemetryError, match="unknown telemetry target"):
            with telemetry(12345):
                pass


class TestFileSinkRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with telemetry(path, worker="w1") as session:
            assert current_spec() == str(path)
            emit_event("sim.engine", engine="fast")
            emit_counter("net.frame", 64, direction="recv")
            with span("kernel.pass2", scheme="reap"):
                pass
            assert isinstance(session.sink, FileSink)
        events = list(read_events(path))
        assert [e["name"] for e in events] == [
            "sim.engine", "net.frame", "kernel.pass2",
        ]
        assert all(e["worker"] == "w1" for e in events)
        # Everything survived JSON: reserved keys typed as written.
        assert events[1]["value"] == 64
        assert events[2]["duration_s"] >= 0.0

    def test_each_line_is_one_json_object(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with telemetry(path):
            for index in range(5):
                emit_event("tick", index=index)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert [json.loads(line)["index"] for line in lines] == list(range(5))

    @pytest.mark.parametrize(
        "tail",
        (
            '{"ts": 1.0, "kind": "event", "na',
            "[" * 100_000,
            '{"ts": ' + "1" * 5000 + "}",
        ),
        ids=("cut", "nested", "bigint"),
    )
    def test_truncated_tail_tolerated(self, tmp_path, tail):
        path = tmp_path / "events.jsonl"
        with telemetry(path):
            emit_event("kept")
        with path.open("a") as handle:
            handle.write(tail)  # writer died
        assert [e["name"] for e in read_events(path)] == ["kept"]

    @pytest.mark.parametrize(
        "line",
        ("not json", "[" * 100_000, '{"ts": ' + "1" * 5000 + "}"),
        ids=("non-json", "nested", "bigint"),
    )
    def test_malformed_mid_file_raises(self, tmp_path, line):
        path = tmp_path / "events.jsonl"
        path.write_text(line + '\n{"ts": 1.0, "kind": "event", "name": "x"}\n')
        with pytest.raises(TelemetryError, match="malformed telemetry line 1"):
            list(read_events(path))

    @pytest.mark.parametrize("line", ("[1, 2]", "7", '"event"', "null"))
    def test_non_object_mid_file_raises(self, tmp_path, line):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "event", "name": "x"}\n' + line + "\n")
        with pytest.raises(TelemetryError, match="line 2 .*not a JSON object"):
            list(read_events(path))

    def test_non_object_tail_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "event", "name": "x"}\n[1, 2]')
        assert [e["name"] for e in read_events(path)] == ["x"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('\n{"kind": "event", "name": "x"}\n\n')
        assert [e["name"] for e in read_events(path)] == ["x"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TelemetryError, match="cannot read"):
            list(read_events(tmp_path / "nope.jsonl"))

    def test_concurrent_threads_never_interleave_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with telemetry(path):
            session = current()

            def emitter(worker_index):
                with activate(session):
                    for _ in range(50):
                        emit_event("tick", worker=worker_index)

            threads = [
                threading.Thread(target=emitter, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        events = list(read_events(path))
        assert len(events) == 200  # every line parsed -> no torn writes


class TestActivateAndProcessInheritance:
    def test_threads_start_without_a_session(self, tmp_path):
        seen = {}
        with telemetry(MemorySink()):
            thread = threading.Thread(
                target=lambda: seen.setdefault("enabled", enabled())
            )
            thread.start()
            thread.join()
        assert seen["enabled"] is False

    def test_activate_reenters_a_captured_session(self):
        sink = MemorySink()
        with telemetry(sink):
            session = current()
            def body():
                with activate(session):
                    emit_event("from.thread")
            thread = threading.Thread(target=body)
            thread.start()
            thread.join()
        assert [e["name"] for e in sink.events] == ["from.thread"]

    def test_activate_none_is_a_noop(self):
        with activate(None):
            assert not enabled()

    def test_enable_for_process_opens_spec(self, tmp_path):
        path = tmp_path / "events.jsonl"
        session = enable_telemetry_for_process(str(path), worker="pool-1")
        try:
            emit_event("job.done")
        finally:
            enable_telemetry_for_process(None)
            session.close()
        (event,) = list(read_events(path))
        assert event["name"] == "job.done" and event["worker"] == "pool-1"

    def test_enable_for_process_none_clears_inherited_session(self):
        sink = MemorySink()
        with telemetry(sink):
            # A forked pool child with a process-local parent sink calls
            # this with None so the renderer never draws twice.
            enable_telemetry_for_process(None)
            assert not enabled()
            emit_event("dropped")
        assert sink.events == []


class TestMultiSink:
    def test_fans_out_to_every_child(self):
        first, second = MemorySink(), MemorySink()
        with telemetry(MultiSink([first, second])):
            emit_event("shared")
        assert [e["name"] for e in first.events] == ["shared"]
        assert [e["name"] for e in second.events] == ["shared"]

    def test_spec_is_first_durable_childs(self, tmp_path):
        file_sink = FileSink(tmp_path / "events.jsonl")
        multi = MultiSink([MemorySink(), file_sink, MemorySink()])
        assert multi.spec == str(tmp_path / "events.jsonl")
        with telemetry(multi):
            # Workers inherit the file, not the process-local renderers.
            assert current_spec() == file_sink.spec

    def test_all_process_local_children_give_no_spec(self):
        assert MultiSink([MemorySink(), NullSink()]).spec is None


def job_event(workload, cached=False, elapsed_s=0.5, accesses=1000, point=""):
    return {
        "kind": "event",
        "name": "campaign.job",
        "workload": workload,
        "point": point,
        "cached": cached,
        "elapsed_s": 0.0 if cached else elapsed_s,
        "accesses": 0 if cached else accesses,
    }


class TestProgressRenderer:
    def test_line_per_job_mode(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(total=2, stream=stream)
        renderer.emit(job_event("gcc", point="p_cell=1e-08"))
        renderer.emit(job_event("mcf", cached=True))
        renderer.emit(
            {"kind": "span", "name": "campaign.run", "duration_s": 1.25}
        )
        out = stream.getvalue()
        assert "[gcc @ p_cell=1e-08] ran in 0.50s" in out
        assert "[mcf] cached" in out
        assert "campaign finished: 2 jobs (1 executed, 1 cached) in 1.25s" in out

    def test_live_mode_redraws_one_line(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(total=3, live=True, stream=stream)
        for workload in ("gcc", "mcf", "namd"):
            renderer.emit(job_event(workload))
        renderer.emit({"kind": "span", "name": "campaign.run", "duration_s": 2.0})
        out = stream.getvalue()
        assert out.count("\r") == 4  # one redraw per job + the final state
        assert "jobs 3/3" in out
        assert "campaign finished: 3 jobs (3 executed, 0 cached)" in out

    def test_unrelated_events_ignored(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream)
        renderer.emit({"kind": "span", "name": "kernel.pass1", "duration_s": 0.1})
        renderer.emit({"kind": "counter", "name": "net.frame", "value": 64})
        assert stream.getvalue() == ""

    def test_renderer_is_process_local(self):
        assert ProgressRenderer(stream=io.StringIO()).spec is None

    def test_close_finishes_an_open_live_line(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(live=True, stream=stream)
        renderer.emit(job_event("gcc"))
        renderer.close()
        assert stream.getvalue().endswith("\n")


class TestReservedKeys:
    def test_reserved_key_set_is_the_documented_schema(self):
        assert RESERVED_KEYS == {
            "ts", "kind", "name", "value", "duration_s", "pid",
        }
