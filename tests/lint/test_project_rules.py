"""End-to-end tests for the interprocedural rules (REP008–REP012).

``tests/lint/cases/`` holds miniature service-shaped modules seeded
with true positives; this file copies that tree out of the repository
(so the repo's own pyproject excludes never interfere) and asserts
every seeded finding lands at its marked line — and nothing else is
flagged.  The synthetic trees below then pin down the individual
mechanisms: sanitizer modules, sink-param propagation, entry locksets,
pool-kind discrimination, the ``*_io_lock`` convention, inline
suppressions, and enable/disable config.  Last, REP008's worklist is
pinned to the round-based fixed point it replaced (``oracles.lint``).
"""

import shutil
import textwrap
from pathlib import Path

import pytest
from oracles.lint import RoundBasedTaintAnalysis

from repro.lint.config import LintConfig
from repro.lint.engine import build_project_index, lint_paths, parse_paths
from repro.lint.taint import TaintAnalysis

CASES = Path(__file__).resolve().parent / "cases"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
SERVICE = Path(__file__).resolve().parents[2] / "src" / "repro" / "service"

PROJECT_CODES = ("REP008", "REP009", "REP010", "REP011", "REP012")


def _marker_line(path, marker):
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if marker in line:
            return lineno
    raise AssertionError(f"marker {marker!r} not found in {path}")


def _lint_files(tmp_path, files, config=None):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    findings, _ = lint_paths([tmp_path], config=config or LintConfig())
    return findings


class TestSeededCases:
    def test_true_positives_found_at_marked_lines_and_nothing_else(self, tmp_path):
        tree = tmp_path / "cases"
        shutil.copytree(CASES, tree)
        findings, scanned = lint_paths([tree], config=LintConfig())
        assert scanned == 3
        located = {(Path(f.path).name, f.line, f.code) for f in findings}
        # Exact set equality also proves the clean counterparts
        # (mark_done, submit_clean, submit_pinned) are NOT flagged.
        assert located == {
            (
                "miniapp.py",
                _marker_line(tree / "miniapp.py", "seeded REP008"),
                "REP008",
            ),
            (
                "miniapp.py",
                _marker_line(tree / "miniapp.py", "seeded REP009"),
                "REP009",
            ),
            (
                "minimodel.py",
                _marker_line(tree / "minimodel.py", "seeded REP002"),
                "REP002",
            ),
            (
                "minimodel.py",
                _marker_line(tree / "minimodel.py", "seeded REP008"),
                "REP008",
            ),
            (
                "ministore.py",
                _marker_line(tree / "ministore.py", "seeded REP010"),
                "REP010",
            ),
        }

    def test_enable_and_disable_config_apply_to_project_rules(self, tmp_path):
        tree = tmp_path / "cases"
        shutil.copytree(CASES, tree)
        only_rep010, _ = lint_paths(
            [tree], config=LintConfig(enable=frozenset({"REP010"}))
        )
        assert sorted(f.code for f in only_rep010) == ["REP010"]
        disabled, _ = lint_paths(
            [tree], config=LintConfig(disable=frozenset(PROJECT_CODES))
        )
        assert [f for f in disabled if f.code in PROJECT_CODES] == []


class TestTaintRules:
    def test_sanitizer_module_stops_taint_and_impurity(self, tmp_path):
        findings = _lint_files(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/obs/__init__.py": """\
                    import time


                    def utc():
                        return time.time()  # repro-lint: disable=REP003
                    """,
                "app.py": """\
                    from repro.obs import utc


                    class ResultCache:
                        def key(self, experiment, kwargs):
                            return (experiment, tuple(sorted(kwargs)))

                        def get_or_compute(self, key, compute):
                            return compute()


                    def submit(cache: ResultCache):
                        return cache.key("analysis", {"stamp": utc()})


                    def cached(cache: ResultCache):
                        return cache.get_or_compute("analysis:v1", utc)
                    """,
            },
        )
        assert [f for f in findings if f.code in ("REP008", "REP009")] == []

    def test_unsanitized_helper_is_flagged(self, tmp_path):
        # Same shape as above, but the clock helper lives in a plain
        # module — both the tainted key and the impure callable fire.
        findings = _lint_files(
            tmp_path,
            {
                "clockish.py": """\
                    import time


                    def utc():
                        return time.time()  # repro-lint: disable=REP003
                    """,
                "app.py": """\
                    from clockish import utc


                    class ResultCache:
                        def key(self, experiment, kwargs):
                            return (experiment, tuple(sorted(kwargs)))

                        def get_or_compute(self, key, compute):
                            return compute()


                    def submit(cache: ResultCache):
                        return cache.key("analysis", {"stamp": utc()})


                    def cached(cache: ResultCache):
                        return cache.get_or_compute("analysis:v1", utc)
                    """,
            },
        )
        assert sorted(f.code for f in findings) == ["REP008", "REP009"]

    def test_taskspec_sink_param_reports_in_the_tainting_caller(self, tmp_path):
        # ``build`` passes its parameter straight into TaskSpec kwargs,
        # so it becomes a sink-param function; the finding lands in
        # ``submit``, the function that actually introduces the clock.
        findings = _lint_files(
            tmp_path,
            {
                "flow.py": """\
                    import time

                    from repro.runtime import TaskSpec


                    def build(kwargs):
                        return TaskSpec(id="t", fn=len, kwargs=kwargs)


                    def submit():
                        stamp = time.time()  # repro-lint: disable=REP003
                        return build({"stamp": stamp})  # tainted call
                    """,
            },
        )
        [finding] = [f for f in findings if f.code == "REP008"]
        assert finding.line == _marker_line(tmp_path / "flow.py", "tainted call")
        assert "via" in finding.message
        assert "time.time" in finding.message

    def test_environment_read_taints_fingerprint_input(self, tmp_path):
        findings = _lint_files(
            tmp_path,
            {
                "fp.py": """\
                    import os

                    from repro.runtime.fingerprint import tree_fingerprint


                    def stamp(tree):
                        host = os.environ["HOSTNAME"]
                        return tree_fingerprint({"tree": tree, "host": host})  # tainted
                    """,
            },
        )
        [finding] = [f for f in findings if f.code == "REP008"]
        assert finding.line == _marker_line(tmp_path / "fp.py", "# tainted")
        assert "os.environ" in finding.message


class TestConcurrencyRules:
    def test_helper_called_only_under_lock_is_not_flagged(self, tmp_path):
        # ``_note`` mutates shared state with no lexical lock, but every
        # thread-reachable call site holds ``_lock`` — the entry-lockset
        # meet proves it guarded.
        findings = _lint_files(
            tmp_path,
            {
                "guarded.py": """\
                    import threading
                    from concurrent.futures import ThreadPoolExecutor


                    class Store:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self.jobs = {}

                        def start(self):
                            pool = ThreadPoolExecutor(max_workers=2)
                            pool.submit(self.work)

                        def work(self):
                            with self._lock:
                                self._note()

                        def _note(self):
                            self.jobs["k"] = 1
                    """,
            },
        )
        assert [f for f in findings if f.code == "REP010"] == []

    def test_process_pools_are_not_thread_entries(self, tmp_path):
        # Separate address spaces share no memory: the same unguarded
        # mutation that REP010 flags under a thread pool is fine here.
        findings = _lint_files(
            tmp_path,
            {
                "procs.py": """\
                    import threading
                    from concurrent.futures import ProcessPoolExecutor


                    class Store:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self.jobs = {}

                        def start(self, job_id):
                            pool = ProcessPoolExecutor(max_workers=2)
                            pool.submit(self.mark, job_id)

                        def mark(self, job_id):
                            self.jobs[job_id] = "running"
                    """,
            },
        )
        assert [f for f in findings if f.code == "REP010"] == []

    def test_lock_order_inversion_across_functions(self, tmp_path):
        # One order is lexical, the other goes through a call: only the
        # interprocedural acquires() closure can see the two-cycle.
        findings = _lint_files(
            tmp_path,
            {
                "locks.py": """\
                    import threading

                    _a = threading.Lock()
                    _b = threading.Lock()


                    def take_b():
                        with _b:
                            return 1


                    def forward():
                        with _a:
                            return take_b()


                    def backward():
                        with _b:
                            with _a:
                                return 2
                    """,
            },
        )
        [finding] = [f for f in findings if f.code == "REP011"]
        assert "lock order inversion" in finding.message
        assert "locks._a" in finding.message
        assert "locks._b" in finding.message

    def test_blocking_under_lock_transitive_and_io_lock_exempt(self, tmp_path):
        findings = _lint_files(
            tmp_path,
            {
                "io_paths.py": """\
                    import threading

                    _lock = threading.Lock()
                    _journal_io_lock = threading.Lock()


                    def persist(text):
                        with open("journal.log", "a") as fh:
                            fh.write(text)


                    def bad(text):
                        with _lock:
                            persist(text)  # blocks under a plain lock


                    def good(text):
                        with _journal_io_lock:
                            persist(text)
                    """,
            },
        )
        [finding] = [f for f in findings if f.code == "REP012"]
        assert finding.line == _marker_line(
            tmp_path / "io_paths.py", "blocks under a plain lock"
        )
        assert "persist" in finding.message
        assert "open" in finding.message


class TestSuppressions:
    def test_inline_disable_silences_a_project_rule(self, tmp_path):
        findings = _lint_files(
            tmp_path,
            {
                "store.py": """\
                    import threading
                    from concurrent.futures import ThreadPoolExecutor


                    class Store:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self.jobs = {}

                        def start(self, job_id):
                            pool = ThreadPoolExecutor(max_workers=2)
                            pool.submit(self.mark, job_id)

                        def mark(self, job_id):
                            self.jobs[job_id] = "x"  # repro-lint: disable=REP010
                    """,
            },
        )
        assert [f for f in findings if f.code == "REP010"] == []

    def test_per_rule_path_exclusion_applies_at_report_time(self, tmp_path):
        tree = tmp_path / "cases"
        shutil.copytree(CASES, tree)
        config = LintConfig(
            per_rule_exclude={"REP010": ("*/ministore.py",)},
        )
        findings, _ = lint_paths([tree], config=config)
        assert [f for f in findings if f.code == "REP010"] == []
        # The other seeded findings still land: the exclusion is
        # per-rule, not per-file.
        assert sorted(f.code for f in findings) == [
            "REP002",
            "REP008",
            "REP008",
            "REP009",
        ]


def _rep008_state(analysis):
    analysis.compute_return_summaries()
    analysis.compute_sink_params()
    tainted = [
        (fn.qname, arg.lineno, arg.col_offset, desc, sources)
        for fn, arg, desc, sources in analysis.tainted_sink_args()
    ]
    return analysis.returns, analysis.sink_params, tainted


class TestReturnSummaryWorklist:
    # The service tree is the input whose summaries chain through enough
    # callers to catch a worklist that never re-queues them.
    @pytest.mark.parametrize(
        "root, sizes",
        [(CASES, (11, 3, 2)), (FIXTURES, (10, 0, 1)), (SERVICE, None)],
        ids=["cases", "fixtures", "service"],
    )
    def test_matches_round_based_fixed_point(self, root, sizes):
        parsed, _, _ = parse_paths([root], LintConfig())
        index = build_project_index(parsed)
        state = _rep008_state(TaintAnalysis(index))
        assert state == _rep008_state(RoundBasedTaintAnalysis(index))
        returns, sink_params, tainted = state
        if sizes is None:
            assert returns and sink_params
        else:
            assert (len(returns), len(sink_params), len(tainted)) == sizes
