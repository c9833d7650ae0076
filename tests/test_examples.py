"""Every script in ``examples/`` runs to completion.

The examples are the documented entry points a reader copies from, and
code an example calls is kept in ``src/`` for that reason alone, so each
one runs here once in a fresh interpreter.  They run in a temporary
directory because ``generate_workload.py`` writes ``out.swf`` to its
working directory.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")
EXAMPLES = sorted(name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py"))


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, example)],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
