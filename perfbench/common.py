"""Shared plumbing: checkout paths, child-process environment, statistics, stamps."""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives under here (ignored by git).
OUT = ROOT / "perfbench" / "out"


def program_present() -> bool:
    """Is the program's source tree next to the benchmark?"""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(tmp_dir: Path) -> Dict[str, str]:
    """Environment for program processes: the checkout's sources, a local tmp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp_dir)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def import_seconds(module: str, tmp_dir: Path) -> float:
    """Seconds a fresh interpreter spends importing *module*."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [python(), "-c", code],
        env=child_env(tmp_dir),
        cwd=str(tmp_dir),
        check=True,
        capture_output=True,
        text=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = 10) -> Dict[str, float]:
    """The highest percentile with at least *beyond* samples above it.

    With *beyond* or fewer samples no percentile qualifies, and the tail
    is the largest sample.  Returns the value, its percentile and the
    sample count (``value`` is NaN with no samples at all).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": math.nan, "percentile": math.nan, "samples": 0}
    if n <= beyond:
        return {"value": float(ordered[-1]), "percentile": 100.0, "samples": n}
    return {
        "value": float(ordered[n - beyond - 1]),
        "percentile": round(100.0 * (n - beyond) / n, 2),
        "samples": n,
    }


def process_tree_cpu_s(pid: int) -> float:
    """CPU seconds of process *pid*, its threads and its waited-for children.

    Read from ``/proc/<pid>/stat`` (utime, stime, cutime, cstime).  The
    kernel leaves out the time the hypervisor takes (steal), so unlike
    wall time this does not move with the load of other tenants on a
    shared VM.
    """
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return sum(int(x) for x in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for descendant process, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def cpu_times() -> Optional[List[int]]:
    """The machine's cumulative CPU time counters (``/proc/stat``), if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor took between two :func:`cpu_times` reads.

    Recorded with each result: on a shared VM it explains most of the
    run-to-run spread of the timings.
    """
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else None


def _git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fs_type(path: Path) -> str:
    """The filesystem type *path* lives on, from the mount table."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment_stamp(dirs: Dict[str, Path], **settings: Any) -> Dict[str, Any]:
    """What a result depends on beyond the code: machine, versions, settings."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "fs_type": {name: fs_type(path) for name, path in dirs.items()},
        "platform": platform.platform(),
        **settings,
    }


def python() -> str:
    return sys.executable or "python3"


def ms(seconds: float) -> float:
    return seconds * 1000.0
