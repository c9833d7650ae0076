"""Summary tests: digest, span tree rendering, critical path."""

from repro.obs import Trace, critical_path, digest, render_tree, summarize_trace


def _span(name, span_id, parent_id, wall_s, ts, **attrs):
    return {
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": "t",
        "wall_s": wall_s,
        "ts": ts,
        "status": attrs.pop("status", "ok"),
        **attrs,
    }


def _tree_trace():
    # run(3.0) -> task:a(2.0) -> compute(1.9); task:b(0.5) sibling.
    return Trace(
        schema=2,
        trace_id="t",
        records=[
            _span("compute", "c1", "a1", 1.9, 3.0),
            _span("task:a", "a1", "r1", 2.0, 2.0, task="a"),
            _span("task:b", "b1", "r1", 0.5, 2.5, task="b"),
            _span("run", "r1", None, 3.0, 1.0),
        ],
    )


class TestDigest:
    def test_empty(self):
        assert digest({}) == "trace: no tasks recorded"

    def test_counts_statuses_cache_and_wall(self):
        spans = {
            "a": {"status": "ok", "cache_hit": True, "retries": 1, "wall_s": 1.0},
            "b": {"status": "failed", "cache_hit": False, "retries": 0, "wall_s": 2.0},
        }
        line = digest(spans)
        assert "2 task(s)" in line
        assert "1 failed" in line and "1 ok" in line
        assert "cache 1 hit / 1 miss" in line
        assert "1 retrie(s)" in line
        assert "3.0s total" in line
        assert "peak RSS" not in line  # no span measured it

    def test_peak_rss_is_the_max_over_tasks(self):
        spans = {
            "a": {"status": "ok", "peak_rss_kb": 2048},
            "b": {"status": "ok", "peak_rss_kb": 4096},
            "c": {"status": "ok", "peak_rss_kb": None},
        }
        assert digest(spans).endswith("; peak RSS 4 MB")


class TestCriticalPath:
    def test_follows_heaviest_chain(self):
        path = [s["name"] for s in critical_path(_tree_trace())]
        assert path == ["run", "task:a", "compute"]

    def test_flat_v1_spans_terminate(self):
        # v1 spans have span_id=None; the walk must not loop on the
        # None key (regression test for the infinite-recursion bug).
        trace = Trace(
            schema=1,
            records=[
                _span("task:a", None, None, 2.0, 1.0, task="a"),
                _span("task:b", None, None, 1.0, 2.0, task="b"),
            ],
        )
        path = [s["name"] for s in critical_path(trace)]
        assert path == ["task:a"]


class TestRenderTree:
    def test_tree_shape_and_critical_marks(self):
        text = render_tree(_tree_trace())
        lines = text.splitlines()
        assert lines[0].startswith("run 3.000s")
        assert lines[0].endswith("*")
        assert any("├─ task:a" in l for l in lines)
        assert any("└─ task:b" in l for l in lines)
        assert any("compute" in l and "*" in l for l in lines)

    def test_orphan_spans_render_at_root(self):
        # Parent lost to a crash: the child still renders.
        trace = Trace(
            schema=2,
            records=[_span("orphan", "o1", "vanished", 1.0, 1.0)],
        )
        assert "orphan" in render_tree(trace)

    def test_flat_v1_trace_renders_without_recursion(self):
        trace = Trace(
            schema=1,
            records=[
                _span("task:a", None, None, 1.0, 1.0, task="a"),
                _span("task:b", None, None, 1.0, 2.0, task="b"),
            ],
        )
        lines = render_tree(trace).splitlines()
        assert len(lines) == 2

    def test_empty_trace(self):
        assert render_tree(Trace()) == "(no spans)"

    def test_non_ok_status_is_flagged(self):
        trace = Trace(schema=2, records=[_span("task:x", "x1", None, 1.0, 1.0, status="failed")])
        assert "[failed]" in render_tree(trace)


class TestSummarizeTrace:
    def test_header_and_truncation_note(self):
        trace = _tree_trace()
        trace.truncated = True
        text = summarize_trace(trace)
        assert "trace t (schema v2)" in text
        assert "[torn tail tolerated]" in text
        assert "task:a" in text
