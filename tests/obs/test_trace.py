"""Trace file tests: v2 round-trip, torn-tail tolerance and repair."""

import json

import pytest

from repro.obs import TRACE_SCHEMA_VERSION, Tracer, TraceWriter, read_trace


class TestStreamingRoundTrip:
    def test_writer_streams_header_then_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path, trace_id="t0")
        tracer = Tracer(writer, trace_id=writer.trace_id)
        with tracer.span("task:figure2", task="figure2"):
            with tracer.span("mds.solve"):
                pass
        trace = read_trace(path)
        assert trace.schema == TRACE_SCHEMA_VERSION
        assert trace.trace_id == "t0"
        assert not trace.truncated
        assert [s["name"] for s in trace.spans] == ["mds.solve", "task:figure2"]
        assert trace.task_spans["figure2"]["name"] == "task:figure2"

    def test_each_record_is_durable_immediately(self, tmp_path):
        # Records land on disk as they are emitted, not at close (there
        # is no close): a kill -9 after any emit loses nothing prior.
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path, trace_id="t0")
        writer.emit({"type": "event", "kind": "probe"})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["kind"] == "probe"

    def test_two_writers_append_to_one_file(self, tmp_path):
        # Parent writes the header; workers reopen with write_header=False.
        path = tmp_path / "trace.jsonl"
        parent = TraceWriter(path, trace_id="shared")
        worker = TraceWriter(path, trace_id="shared", write_header=False)
        parent.emit({"type": "event", "kind": "parent"})
        worker.emit({"type": "event", "kind": "worker"})
        trace = read_trace(path)
        assert trace.trace_id == "shared"
        assert [e["kind"] for e in trace.events] == ["parent", "worker"]

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace(tmp_path / "absent.jsonl")


class TestTornTail:
    def test_torn_final_line_is_tolerated_and_flagged(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path, trace_id="t0")
        tracer = Tracer(writer, trace_id="t0")
        with tracer.span("task:done", task="done"):
            pass
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "name": "torn')  # crash mid-append
        trace = read_trace(path)
        assert trace.truncated
        assert "done" in trace.task_spans  # everything before the tear survives

    def test_reopened_writer_repairs_torn_tail(self, tmp_path):
        # A resumed run or a rebooted service reopens a trace a SIGKILL
        # tore mid-append: its header must land on a fresh line.
        path = tmp_path / "trace.jsonl"
        TraceWriter(path, trace_id="first").emit({"type": "event", "kind": "before"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "event", "kind": "to')  # crash mid-append
        second = TraceWriter(path, trace_id="second")
        header = json.loads(path.read_text().splitlines()[-1])
        assert header["type"] == "header"
        assert header["trace_id"] == second.trace_id
        assert read_trace(path).trace_id == "second"

    def test_worker_writer_never_repairs(self, tmp_path):
        # Another process may be mid-append: a headerless writer must not
        # touch the tail.
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "header", "trace_id": "t0"}\n{"partial')
        TraceWriter(path, trace_id="t0", write_header=False)
        assert path.read_text().endswith('{"partial')

    def test_mid_file_garbage_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path, trace_id="t0")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        writer.emit({"type": "event", "kind": "after"})
        trace = read_trace(path)
        assert trace.truncated
        assert [e["kind"] for e in trace.events] == ["after"]

    def test_non_dict_line_is_flagged(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('["a", "list"]\n')
        trace = read_trace(path)
        assert trace.truncated
        assert trace.records == []
