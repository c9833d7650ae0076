"""The ``suite-full`` workload: the whole paper reproduction, serial, from cold.

Each suite is one fresh process (``suite_child.py``) running
``repro.experiments.runner`` with ``--jobs 1`` on a new cache directory,
so all 13 experiments compute, in the order and on the seed a reader of
the paper gets from ``python -m repro.experiments``.  A run makes a fixed
number of suites — set by ``--seconds``, not by how fast they go — so
every commit is measured on the same number of samples.

An *analysis* here is one experiment: ``cpu_ms_per_analysis`` is the
suite process's CPU time over ``runner.main`` divided by 13, the median
over the suites.  The wall-clock view treats one whole reproduction as
the request: ``wall.latency_*`` are the ``runner.main`` wall times of
the suites (the tail, with fewer than 11 suites, is the slowest one),
and ``wall.analyses_per_s`` is ``13 / suite_s``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List

import layers
from common import (
    child_env,
    children_peak_rss_mb,
    cpu_times,
    fresh_dir,
    median,
    ms,
    python,
    steal_share,
    tail,
)

HERE = Path(__file__).resolve().parent

#: Paper claims the reproduction holds at the runner's default seed.
EXPECTED_CLAIMS = 65


def suites_per_run(seconds: float) -> int:
    """Two suites, and one more per further 15 s of ``--seconds``."""
    return max(2, math.ceil(seconds / 15))


def _claims(report: Path) -> Dict[str, List[bool]]:
    """Per experiment, whether each of its claims holds (from ``--report``)."""
    claims: Dict[str, List[bool]] = {}
    for line in report.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 5 and cells[-1] in ("yes", "NO"):
            claims.setdefault(cells[0], []).append(cells[-1] == "yes")
    return claims


def _experiments(trace: Path) -> Dict[str, Dict[str, Any]]:
    """Per experiment, its status and wall time (from the runner's ``--trace``)."""
    out: Dict[str, Dict[str, Any]] = {}
    for line in trace.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("type") == "span" and "task" in record:
            out[record["task"]] = {"status": record.get("status"), "wall_s": record.get("wall_s")}
    return out


def _launch(idx: int, mode: str, work: Path, tmp: Path) -> Dict[str, Any]:
    """One child process; its setup time, import time and (unless set-up only) suite."""
    result_path = work / f"suite{idx}.json"
    args = [python(), str(HERE / "suite_child.py"), str(result_path), mode]
    cache, trace, report = (work / f"{name}{idx}" for name in ("cache", "trace", "report"))
    if mode != "setup":
        args += ["--jobs", "1", "--cache-dir", str(cache)]
        args += ["--trace", str(trace), "--report", str(report)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=child_env(tmp), cwd=str(tmp))
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        if proc.poll() is None and not ready:
            proc.kill()
        code = proc.wait()
    if code != 0 or not ready.startswith(b"READY"):
        raise RuntimeError(f"suite process {idx} ({mode}) exited {code}")
    child = json.loads(result_path.read_text(encoding="utf-8"))
    child["setup_s"] = setup_s
    if mode == "setup":
        return child
    experiments = _experiments(trace)
    claims = _claims(report)
    held = sum(sum(c) for c in claims.values())
    total = sum(len(c) for c in claims.values())
    ok = [
        e for e, info in experiments.items()
        if info["status"] == "ok" and all(claims.get(e, []))
    ]
    child.update(
        experiments=experiments,
        ok=ok,
        failed=len(experiments) - len(ok) + max(0, len(layers.EXPERIMENT_IDS) - len(experiments)),
        claims_held=held,
        claims_total=total,
        correct=child["exit_code"] == 0 and held == total >= EXPECTED_CLAIMS,
    )
    shutil.rmtree(cache, ignore_errors=True)
    return child


def run(seed: int, seconds: float, traced: bool, out: Path) -> Dict[str, Any]:
    """*seed* is unused: the reproduction's inputs are the registry's, at its seed 0.

    The paper's claims are checked at the runner's default master seed;
    on some other seeds a claim misses, which would count as a failure
    of the program rather than measure it.
    """
    del seed
    work = fresh_dir(out / "work")
    try:
        return _run(seconds, traced, out, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(seconds: float, traced: bool, out: Path, work: Path) -> Dict[str, Any]:
    tmp = fresh_dir(work / "tmp")
    modes = ["plain", "traced"] if traced else ["plain"] * suites_per_run(seconds)
    before = cpu_times()
    suites = [_launch(i, mode, work, tmp) for i, mode in enumerate(modes)]
    steal = steal_share(before, cpu_times())
    setup_only = _launch(len(modes), "setup", work, tmp)

    timed = [s for s, mode in zip(suites, modes) if mode == "plain"]
    suite_ms = [ms(s["suite_s"]) for s in timed]
    launches = suites + [setup_only]
    attempted = sum(max(len(s["experiments"]), len(layers.EXPERIMENT_IDS)) for s in suites)
    failed = sum(s["failed"] for s in suites)
    result: Dict[str, Any] = {
        "correct": all(s["correct"] for s in suites) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "suites": len(suites),
            "host_steal_share": steal,
            "suite_s": [s["suite_s"] for s in suites],
            "suite_cpu_s": [s["cpu_s"] for s in suites],
            "claims_held": [s["claims_held"] for s in suites],
            "claims_total": [s["claims_total"] for s in suites],
            "setup_cpu_samples_s": [s["setup_cpu_s"] for s in launches],
            "setup_wall_samples_s": [s["setup_s"] for s in launches],
            "import_samples_s": [s["import_s"] for s in launches],
            "latency_tail": tail(suite_ms),
            "experiment_wall_s": [
                {e: v["wall_s"] for e, v in s["experiments"].items()} for s in suites
            ],
        },
        "settings": {"runner_args": ["--jobs", "1"], "suites": len(suites)},
        "dirs": {"cache": work},
        "wall": {
            "wall.setup_s": median([s["setup_s"] for s in launches]),
            "wall.analyses_per_s": median([len(s["ok"]) / s["suite_s"] for s in timed]),
            "wall.latency_p50_ms": median(suite_ms),
            "wall.latency_tail_ms": tail(suite_ms)["value"],
        },
    }
    if not traced:
        result["metrics"] = {
            "setup_s": median([s["setup_cpu_s"] for s in launches]),
            "cpu_ms_per_analysis": median(
                [ms(s["cpu_s"]) / len(s["ok"]) if s["ok"] else math.nan for s in timed]
            ),
            "peak_rss_mb": children_peak_rss_mb(),
        }
        return result
    plain, traced_suite = suites
    shutil.copyfile(traced_suite["spans"], out / "spans.jsonl")
    spans = layers.load_spans(out / "spans.jsonl")
    metrics = layers.layer_metrics(spans)
    metrics.update(
        {
            **result["wall"],
            "setup.import_s": median(result["detail"]["import_samples_s"]),
            "experiments.claims_held": float(traced_suite["claims_held"]),
            "trace.overhead_s": traced_suite["suite_s"] - plain["suite_s"],
        }
    )
    result["metrics"] = metrics
    return result
