"""Run telemetry tests: the digest of a run's streamed task-summary spans."""

from repro.obs import TraceWriter, digest, read_trace


def _task_span(task, **fields):
    # The id-less per-task summary span the experiment runner emits.
    return {"type": "span", "name": f"task:{task}", "task": task, "ts": 1000.0, **fields}


def _round_trip(tmp_path, records):
    path = tmp_path / "trace.jsonl"
    writer = TraceWriter(path)
    for record in records:
        writer.emit(record)
    return read_trace(path)


class TestSummary:
    def test_empty(self, tmp_path):
        assert "no tasks" in digest(_round_trip(tmp_path, []).task_spans)

    def test_digest_mentions_counts(self, tmp_path):
        trace = _round_trip(
            tmp_path,
            [
                {"type": "event", "kind": "noise", "ts": 1000.0},
                _task_span("a", status="ok", wall_s=1.0, cache_hit=True, retries=0),
                _task_span(
                    "b", status="failed", wall_s=2.0, cache_hit=False, retries=2, peak_rss_kb=4096
                ),
                {"type": "metric", "name": "cache_hits", "value": 1, "ts": 1000.0},
            ],
        )
        line = digest(trace.task_spans)
        assert "2 task(s)" in line
        assert "1 failed" in line and "1 ok" in line
        assert "cache 1 hit / 1 miss" in line
        assert "2 retrie(s)" in line
        assert "3.0s total" in line
        assert "peak RSS 4 MB" in line
