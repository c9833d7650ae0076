"""CLI behaviour: exit codes, formats, --output, rule selection, --dump-graph."""

import json
import shutil
from pathlib import Path

import pytest

from repro.lint import KNOWN_CODES
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture
def fixture_tree(tmp_path):
    """The violation fixtures copied outside the repo, so the repository
    pyproject (which excludes them) is not discovered."""
    tree = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, tree)
    return tree


class TestExitCodes:
    def test_fixture_tree_has_one_violation_per_rule(self, fixture_tree, capsys):
        assert main([str(fixture_tree), "--format", "json", "--no-config"]) == EXIT_FINDINGS
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["by_code"] == {code: 1 for code in sorted(KNOWN_CODES)}

    def test_clean_file_exits_zero(self, fixture_tree, capsys):
        assert main([str(fixture_tree / "clean.py"), "--no-config"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "clean (1 file(s) scanned)" in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope"), "--no-config"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_select_code_is_usage_error(self, fixture_tree, capsys):
        assert main([str(fixture_tree), "--select", "REP999", "--no-config"]) == EXIT_USAGE
        assert "REP999" in capsys.readouterr().err


class TestFormats:
    def test_text_lines_are_canonical(self, fixture_tree, capsys):
        main([str(fixture_tree / "rep003_wall_clock.py"), "--no-config"])
        out = capsys.readouterr().out
        assert "rep003_wall_clock.py:7:30: REP003 [error]" in out
        assert "1 finding(s) in 1 file(s) scanned" in out

    def test_json_report_shape(self, fixture_tree, capsys):
        main([str(fixture_tree / "rep006_mutable_default.py"), "--format", "json", "--no-config"])
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["files_scanned"] == 1
        (finding,) = report["findings"]
        assert finding["code"] == "REP006"
        assert set(finding) == {"path", "line", "col", "code", "severity", "message"}

    def test_output_writes_file_and_summary_to_stderr(self, fixture_tree, tmp_path, capsys):
        out_file = tmp_path / "reports" / "lint.json"
        code = main(
            [str(fixture_tree), "--format", "json", "--output", str(out_file), "--no-config"]
        )
        assert code == EXIT_FINDINGS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finding(s)" in captured.err
        report = json.loads(out_file.read_text(encoding="utf-8"))
        assert report["summary"]["total"] == len(KNOWN_CODES)


class TestSelection:
    def test_select_runs_only_named_rules(self, fixture_tree, capsys):
        assert main([str(fixture_tree), "--select", "REP005", "--format", "json", "--no-config"]) == EXIT_FINDINGS
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["by_code"] == {"REP005": 1}

    def test_ignore_skips_named_rules(self, fixture_tree, capsys):
        args = [str(fixture_tree), "--ignore", "REP001,REP004", "--format", "json", "--no-config"]
        assert main(args) == EXIT_FINDINGS
        report = json.loads(capsys.readouterr().out)
        assert set(report["summary"]["by_code"]) == KNOWN_CODES - {"REP001", "REP004"}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in KNOWN_CODES:
            assert code in out


class TestConfigDiscovery:
    def test_pyproject_exclude_discovered_from_linted_path(self, fixture_tree, capsys):
        (fixture_tree.parent / "pyproject.toml").write_text(
            "[tool.repro-lint]\nexclude = ['fixtures/rep*']\n", encoding="utf-8"
        )
        assert main([str(fixture_tree)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_explicit_config_flag(self, fixture_tree, tmp_path, capsys):
        config = tmp_path / "custom.toml"
        config.write_text("[tool.repro-lint]\nenable = ['REP002']\n", encoding="utf-8")
        assert main([str(fixture_tree), "--config", str(config), "--format", "json"]) == EXIT_FINDINGS
        report = json.loads(capsys.readouterr().out)
        assert set(report["summary"]["by_code"]) == {"REP002"}

    def test_invalid_config_is_usage_error(self, fixture_tree, tmp_path, capsys):
        config = tmp_path / "custom.toml"
        config.write_text("[tool.repro-lint]\ndisable = ['REP999']\n", encoding="utf-8")
        assert main([str(fixture_tree), "--config", str(config)]) == EXIT_USAGE
        assert "REP999" in capsys.readouterr().err


class TestDumpGraph:
    def test_writes_the_call_graph_of_the_linted_files(self, fixture_tree, tmp_path, capsys):
        out = tmp_path / "graphs" / "lint-graph.json"
        assert main([str(fixture_tree), "--no-config", "--dump-graph", str(out)]) == EXIT_CLEAN
        captured = capsys.readouterr()
        assert captured.out == ""
        files = sorted(str(p) for p in fixture_tree.glob("*.py"))
        assert f"call graph over {len(files)} file(s)" in captured.err
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert sorted(m["path"] for m in doc["modules"].values()) == files

    def test_config_excludes_apply_to_the_graph(self, fixture_tree, tmp_path, capsys):
        (fixture_tree.parent / "pyproject.toml").write_text(
            "[tool.repro-lint]\nexclude = ['fixtures/rep*']\n", encoding="utf-8"
        )
        out = tmp_path / "lint-graph.json"
        assert main([str(fixture_tree), "--dump-graph", str(out)]) == EXIT_CLEAN
        assert "call graph over 1 file(s)" in capsys.readouterr().err
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [m["path"] for m in doc["modules"].values()] == [str(fixture_tree / "clean.py")]

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "lint-graph.json"
        args = [str(tmp_path / "nope"), "--no-config", "--dump-graph", str(out)]
        assert main(args) == EXIT_USAGE
        assert "error" in capsys.readouterr().err
        assert not out.exists()


class TestNoCacheOptions:
    # The linter keeps no cache, so the options that steered one are gone.
    @pytest.mark.parametrize(
        "flags",
        [["--no-incremental"], ["--cache-dir", "lint-cache"]],
        ids=["no-incremental", "cache-dir"],
    )
    def test_cache_options_are_usage_errors(
        self, fixture_tree, tmp_path, monkeypatch, capsys, flags
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([str(fixture_tree), "--no-config", *flags])
        assert exit_info.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "lint-cache").exists()
