"""The self-hosted gate: the analyzer must be clean on its own codebase.

This is the same invocation CI runs (``python -m repro.lint src tests``)
— if it fails, either a determinism violation crept in or a new rule
needs the offending code fixed/suppressed before it can land.  The run
also bounds the pass's CPU time: the linter keeps no cache, so every
run pays it in full.
"""

import json
import time
from pathlib import Path

from repro.lint.cli import EXIT_CLEAN, main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSelfHost:
    def test_src_and_tests_are_clean(self, capsys):
        start = time.process_time()
        code = main([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"), "--format", "json"])
        cpu_seconds = time.process_time() - start
        report = json.loads(capsys.readouterr().out)
        assert report["findings"] == [], "\n".join(
            f"{f['path']}:{f['line']}: {f['code']} {f['message']}" for f in report["findings"]
        )
        assert code == EXIT_CLEAN
        # Sanity: the walk really covered the codebase.
        assert report["files_scanned"] > 100
        # ~5 s on a 2-vCPU VM; the round-based analysis took 19-21 s.
        assert cpu_seconds < 10.0, f"cold lint pass took {cpu_seconds:.1f}s of CPU"

    def test_repo_config_excludes_lint_fixtures(self, capsys):
        # The fixtures directory holds deliberate violations; the repo
        # pyproject must keep them out of the gate.
        code = main([str(REPO_ROOT / "tests" / "lint" / "fixtures")])
        assert code == EXIT_CLEAN
        assert "0 file(s) scanned" in capsys.readouterr().out
