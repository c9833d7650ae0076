"""Unit tests for REP008's value analysis (:mod:`repro.lint.taint`).

The end-to-end rule tests live in ``test_project_rules.py``; this file
pins the machinery under them.  Each function's own scope is scanned
once into assignment pairs (in evaluation order) and returned values;
return summaries are solved with a worklist that evaluates a function
again only when a callee's summary changed, at most ``_MAX_ROUNDS``
times; and the environment of each function's last evaluation is reused
by the sink passes unless that ceiling left it stale.
"""

import ast
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import taint
from repro.lint.config import LintConfig
from repro.lint.engine import build_project_index, parse_paths
from repro.lint.taint import TaintAnalysis, _scan_scope, is_sanitized

CASES = Path(__file__).resolve().parent / "cases"
SERVICE = Path(__file__).resolve().parents[2] / "src" / "repro" / "service"

CLOCK = frozenset({"source:time.time"})


def _function(source):
    """The first function defined in *source*."""
    tree = ast.parse(textwrap.dedent(source))
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))


def _bound_names(source):
    pairs, _returns = _scan_scope(_function(source))
    return [names for names, _value in pairs]


def _index(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    parsed, _, _ = parse_paths([tmp_path], LintConfig())
    return build_project_index(parsed)


class CountingAnalysis(TaintAnalysis):
    """Counts the evaluations of each function's environment."""

    def __init__(self, index):
        super().__init__(index)
        self.evaluations = Counter()

    def _env(self, fn):
        self.evaluations[fn.qname] += 1
        return super()._env(fn)


class TestScanScope:
    def test_assignments_come_in_evaluation_order(self):
        assert _bound_names(
            """\
            def f(p):
                a = p
                if p:
                    b = a
                c = b
                return c
            """
        ) == [("a",), ("b",), ("c",)]

    def test_every_binding_form_names_its_targets(self):
        assert _bound_names(
            """\
            def f(v):
                x, (y, z) = v
                w: int = v
                u: int
                n += v
                for i, j in v:
                    pass
                if (k := v):
                    pass
                obj.attr = v
            """
        ) == [("x", "y", "z"), ("w",), ("n",), ("i", "j"), ("k",), ("obj",)]

    def test_nested_scopes_are_skipped(self):
        pairs, returns = _scan_scope(
            _function(
                """\
                def f(p):
                    def inner():
                        hidden = p
                        return hidden

                    class Box:
                        field = p

                    g = lambda: p
                    return g
                """
            )
        )
        assert [names for names, _ in pairs] == [("g",)]
        assert [ast.unparse(value) for value in returns] == ["g"]

    def test_returned_values_skip_bare_returns(self):
        _pairs, returns = _scan_scope(
            _function(
                """\
                def f(p):
                    if p:
                        return
                    while p:
                        return p + 1
                    return p
                """
            )
        )
        assert sorted(ast.unparse(value) for value in returns) == ["p", "p + 1"]

    def test_one_round_carries_labels_down_a_chain(self, tmp_path, monkeypatch):
        # Evaluation order is what lets a single round of the environment
        # reach the end of a straight chain of assignments.
        monkeypatch.setattr(taint, "_MAX_ROUNDS", 1)
        index = _index(
            tmp_path,
            {
                "m.py": """\
                    def f(p):
                        a = p
                        b = a
                        c = b
                        d = c
                        return d
                    """,
            },
        )
        env = TaintAnalysis(index)._env(index.functions["m.f"])
        assert env["d"] == frozenset({"param:0"})


class TestReturnSummaries:
    def test_callers_defined_before_their_callees_are_requeued(self, tmp_path):
        index = _index(
            tmp_path,
            {
                "m.py": """\
                    import time


                    def top():
                        return middle()


                    def middle():
                        return bottom()


                    def bottom():
                        return time.time()
                    """,
            },
        )
        analysis = TaintAnalysis(index)
        analysis.compute_return_summaries()
        for name in ("top", "middle", "bottom"):
            assert analysis.returns[f"m.{name}"] == CLOCK

    def test_parameters_pass_through_a_call_chain(self, tmp_path):
        index = _index(
            tmp_path,
            {
                "m.py": """\
                    import time


                    def use():
                        return outer(time.time())


                    def outer(x):
                        return inner(x)


                    def inner(y):
                        return y
                    """,
            },
        )
        analysis = TaintAnalysis(index)
        analysis.compute_return_summaries()
        assert analysis.returns["m.inner"] == frozenset({"param:0"})
        assert analysis.returns["m.outer"] == frozenset({"param:0"})
        assert analysis.returns["m.use"] == CLOCK

    def test_mutual_recursion_converges(self, tmp_path):
        index = _index(
            tmp_path,
            {
                "m.py": """\
                    import time


                    def ping(n):
                        if n:
                            return pong(n)
                        return time.time()


                    def pong(n):
                        return ping(n - 1)
                    """,
            },
        )
        analysis = TaintAnalysis(index)
        analysis.compute_return_summaries()
        assert analysis.returns["m.ping"] == CLOCK
        assert analysis.returns["m.pong"] == CLOCK

    def test_a_function_is_evaluated_again_only_when_a_callee_changed(self, tmp_path):
        index = _index(
            tmp_path,
            {
                "m.py": """\
                    import time


                    def early():
                        return late()


                    def late():
                        return time.time()


                    def after():
                        return late()


                    def alone():
                        return 1
                    """,
            },
        )
        analysis = CountingAnalysis(index)
        analysis.compute_return_summaries()
        # ``early`` ran before ``late`` had a summary; ``after`` did not.
        assert analysis.evaluations["m.early"] == 2
        assert analysis.evaluations["m.late"] == 1
        assert analysis.evaluations["m.after"] == 1
        assert analysis.evaluations["m.alone"] == 1

    def test_sanitized_functions_are_never_evaluated(self, tmp_path):
        index = _index(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/obs/__init__.py": """\
                    import time


                    def utc():
                        return time.time()
                    """,
                "app.py": """\
                    from repro.obs import utc


                    def stamp():
                        return utc()
                    """,
            },
        )
        assert is_sanitized("repro.obs.utc") and "repro.obs.utc" in index.functions
        analysis = CountingAnalysis(index)
        analysis.compute_return_summaries()
        assert "repro.obs.utc" not in analysis.evaluations
        assert "repro.obs.utc" not in analysis.returns
        assert analysis.returns.get("app.stamp", frozenset()) == frozenset()

    def test_ceiling_drops_the_environment_it_left_stale(self, tmp_path, monkeypatch):
        # With one evaluation per function, ``early`` is not re-run when
        # ``late``'s summary appears, so its environment from that single
        # evaluation must not reach the sink passes.
        monkeypatch.setattr(taint, "_MAX_ROUNDS", 1)
        index = _index(
            tmp_path,
            {
                "m.py": """\
                    import time


                    def early():
                        stamp = late()
                        return stamp


                    def late():
                        return time.time()
                    """,
            },
        )
        analysis = CountingAnalysis(index)
        analysis.compute_return_summaries()
        assert analysis.evaluations["m.early"] == 1
        assert "m.early" not in analysis.returns
        assert "m.early" not in analysis._final_envs
        assert "m.late" in analysis._final_envs
        env = analysis._final_env(index.functions["m.early"])
        assert env["stamp"] == CLOCK

    @pytest.mark.parametrize("root", [CASES, SERVICE], ids=["cases", "service"])
    def test_last_environments_are_final(self, root):
        parsed, _, _ = parse_paths([root], LintConfig())
        index = build_project_index(parsed)
        analysis = TaintAnalysis(index)
        analysis.compute_return_summaries()
        assert set(analysis._final_envs) == {
            qname for qname in index.functions if not is_sanitized(qname)
        }
        for qname, env in analysis._final_envs.items():
            assert env == analysis._env(index.functions[qname]), qname
