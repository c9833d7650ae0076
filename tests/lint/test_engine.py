"""Engine-level behaviour: alias resolution, suppressions, parse errors,
and the read/parse loop both the lint pass and ``--dump-graph`` share."""

import ast
import textwrap
import tokenize

import pytest

import repro.lint.engine as engine
from repro.lint import PARSE_ERROR_CODE, LintConfig, Severity, lint_source
from repro.lint.engine import ImportTable, collect_suppressions, parse_paths


def codes(source):
    return [f.code for f in lint_source(textwrap.dedent(source))]


class TestImportTable:
    def resolve(self, source, expr):
        table = ImportTable()
        for node in ast.parse(source).body:
            if isinstance(node, ast.Import):
                table.add_import(node)
            elif isinstance(node, ast.ImportFrom):
                table.add_import_from(node)
        return table.resolve(ast.parse(expr, mode="eval").body)

    def test_plain_import(self):
        assert self.resolve("import time", "time.time") == "time.time"

    def test_aliased_import(self):
        assert self.resolve("import numpy as np", "np.random.rand") == "numpy.random.rand"

    def test_submodule_import_binds_root(self):
        assert self.resolve("import numpy.random", "numpy.random.rand") == "numpy.random.rand"

    def test_from_import_with_alias(self):
        assert (
            self.resolve("from numpy.random import default_rng as mk", "mk")
            == "numpy.random.default_rng"
        )

    def test_from_import_shadows_stdlib(self):
        assert self.resolve("from numpy import random", "random.rand") == "numpy.random.rand"

    def test_unknown_and_relative_names_unresolved(self):
        assert self.resolve("import time", "os.urandom") is None
        assert self.resolve("from . import sibling", "sibling.f") is None

    def test_call_rooted_expression_unresolved(self):
        assert self.resolve("import random", "random.Random(0).random") is None


class TestSuppressions:
    def test_line_suppression_specific_code(self):
        assert (
            codes(
                """\
                import time
                t = time.time()  # repro-lint: disable=REP003
                """
            )
            == []
        )

    def test_line_suppression_with_trailing_rationale(self):
        assert (
            codes(
                """\
                import time
                t = time.time()  # repro-lint: disable=REP003 -- wall clock is the point
                """
            )
            == []
        )

    def test_line_suppression_wrong_code_still_reports(self):
        assert codes(
            """\
            import time
            t = time.time()  # repro-lint: disable=REP001
            """
        ) == ["REP003"]

    def test_line_suppression_all_codes(self):
        assert (
            codes(
                """\
                import time
                def f(acc=[]):
                    return 1
                t = time.time()  # repro-lint: disable
                """
            )
            == ["REP006"]
        )

    def test_line_suppression_multiple_codes(self):
        assert (
            codes(
                """\
                import time
                def f(acc=[]):  # repro-lint: disable=REP006, REP001
                    return time.time()  # repro-lint: disable=REP003
                """
            )
            == []
        )

    def test_file_suppression(self):
        assert (
            codes(
                """\
                # repro-lint: disable-file=REP003
                import time
                a = time.time()
                b = time.time_ns()
                """
            )
            == []
        )

    def test_suppression_only_covers_its_line(self):
        assert codes(
            """\
            import time
            a = time.time()  # repro-lint: disable=REP003
            b = time.time()
            """
        ) == ["REP003"]

    def test_suppression_text_inside_string_ignored(self):
        assert codes(
            """\
            import time
            note = "# repro-lint: disable-file=REP003"
            t = time.time()
            """
        ) == ["REP003"]

    def test_collect_suppressions_shapes(self):
        per_line, per_file = collect_suppressions(
            "# repro-lint: disable-file=REP005\nx = 1  # repro-lint: disable=REP001,REP002\n"
        )
        assert per_file == {"REP005"}
        assert per_line == {2: {"REP001", "REP002"}}

    def test_only_sources_that_spell_the_marker_are_tokenized(self, monkeypatch):
        calls = []
        real = tokenize.generate_tokens

        def counting(readline):
            calls.append(1)
            return real(readline)

        monkeypatch.setattr(engine.tokenize, "generate_tokens", counting)
        assert collect_suppressions("import time\nt = time.time()  # noqa\n") == ({}, set())
        assert calls == []
        assert collect_suppressions("t = 1  # repro-lint: disable=REP003\n") == (
            {1: {"REP003"}},
            set(),
        )
        assert calls == [1]


class TestParseErrors:
    def test_syntax_error_becomes_finding(self):
        (f,) = lint_source("def broken(:\n", path="bad.py")
        assert f.code == PARSE_ERROR_CODE
        assert f.path == "bad.py"
        assert f.severity is Severity.ERROR
        assert "does not parse" in f.message


def _tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


class TestParsePaths:
    def test_unparsable_file_is_a_finding_and_still_counted(self, tmp_path):
        tree = _tree(tmp_path, {"good.py": "x = 1\n", "bad.py": "def broken(:\n"})
        parsed, findings, scanned = parse_paths([tree], LintConfig())
        assert [f.path.name for f in parsed] == ["good.py"]
        (finding,) = findings
        assert (finding.path, finding.code) == (str(tree / "bad.py"), PARSE_ERROR_CODE)
        assert scanned == 2

    def test_excluded_files_are_neither_parsed_nor_counted(self, tmp_path):
        tree = _tree(tmp_path, {"a.py": "x = 1\n", "vendor/b.py": "y = 2\n"})
        config = LintConfig(root=tree, exclude=("vendor/*",))
        parsed, findings, scanned = parse_paths([tree], config)
        assert [f.path.name for f in parsed] == ["a.py"]
        assert findings == []
        assert scanned == 1

    def test_parsed_files_carry_their_suppressions(self, tmp_path):
        tree = _tree(
            tmp_path,
            {
                "quiet.py": """\
                    # repro-lint: disable-file=REP005
                    x = 1  # repro-lint: disable=REP003
                    """,
                "plain.py": "y = 2\n",
            },
        )
        parsed, _, _ = parse_paths([tree], LintConfig())
        by_name = {f.path.name: f for f in parsed}
        assert by_name["quiet.py"].file_suppressions == {"REP005"}
        assert by_name["quiet.py"].line_suppressions == {2: {"REP003"}}
        assert by_name["plain.py"].file_suppressions == set()
        assert by_name["plain.py"].line_suppressions == {}

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_paths([tmp_path / "nope"], LintConfig())
