"""Start-up: every entry point imports only what it computes with.

Compute paths need :mod:`scipy.special` alone; ``scipy.stats`` and
``scipy.optimize`` take ~1 s to import and are test oracles only
(``tests/stats/test_scipy_ports.py``).  The linter, trace and cache tools
load neither scipy nor numpy, because ``import repro`` loads its
subpackages lazily and ``repro.util`` imports none of its modules.  Each
check runs in a fresh interpreter, since this test process has imported
both already.
"""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The two packages no compute path may import.
ORACLE_ONLY = {"scipy.stats", "scipy.optimize"}


def _loaded(statement: str, cwd: str = REPO_ROOT) -> set:
    """The scipy and numpy modules a fresh interpreter has loaded after
    *statement*."""
    code = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in ('scipy', 'numpy'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["repro.lint.cli", "repro.obs.cli", "repro.runtime.cache"])
def test_tools_load_no_scipy(module):
    assert _loaded(f"import {module}") == set()


@pytest.mark.parametrize("module", ["repro.experiments.runner", "repro.service.cli"])
def test_compute_entry_points_load_only_scipy_special(module):
    loaded = _loaded(f"import {module}")
    assert "scipy.special" in loaded
    assert not loaded & ORACLE_ONLY


def test_quick_suite_computes_without_stats_or_optimize(tmp_path):
    run = (
        "from repro.experiments.runner import main\n"
        f"rc = main(['--quick', '--jobs', '1', '--cache-dir', {str(tmp_path / 'cache')!r}])\n"
        "assert rc == 0, rc"
    )
    assert not _loaded(run, cwd=str(tmp_path)) & ORACLE_ONLY
