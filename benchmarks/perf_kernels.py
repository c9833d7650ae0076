"""Vectorized-kernel speedup gate: ``make perf-bench``.

Times each rewritten hot kernel against its retained ``*_reference``
implementation on fixed synthetic inputs and writes the verdict to
``BENCH_perf.json``.  Six kernels carry hard floors:

* SWF ingest (``read_swf`` vs ``read_swf_reference``) on an
  archive-shaped 120k-job log — must be **>= 5x** faster;
* SMACOF at ``n_init=8`` (``engine="batched"`` vs ``"reference"``) —
  must be **>= 3x** faster;
* Lublin generation at 1M jobs (``engine="batched"`` vs
  ``"reference"``) — must be **>= 10x** faster;
* bootstrap stability at ``n_boot=20`` on a paper-shaped matrix
  (``engine="batched"`` vs ``"reference"``) — must be **>= 3x** faster;
* the FCFS simulator loop at 100k jobs (``simulate`` vs
  ``simulate_reference``) — must be **>= 2x** faster;
* the Section 8 subset search — the ``param`` experiment's 56
  three-variable subsets at ``n_init=4`` — through ``best_subset`` (one
  ``Coplot.fit_many`` batch) vs a plain ``Coplot.fit`` loop written
  here — must be **>= 4x** faster.

The windowed R/S kernel and the bulk SWF renderer are recorded
informationally (their speedups are real but size-dependent, so they
are not gated).  Timings are best-of-N to shrug off scheduler noise;
the *ratio* of two best-of-N timings is far more stable than either
absolute number on shared CI hardware.

Run directly (``python benchmarks/perf_kernels.py``); exits nonzero
when a gated kernel misses its floor.  ``--quick`` shrinks the inputs
for a fast smoke run (no gating, BENCH_perf.json not written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Callable, Dict

import numpy as np

OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_perf.json"
)

#: Hard speedup floors, asserted here and in benchmarks/test_bench_kernels.py.
TARGETS = {
    "swf_ingest": 5.0,
    "smacof_n_init8": 3.0,
    "lublin_generate": 10.0,
    "bootstrap_stability": 3.0,
    "simulate_fcfs": 2.0,
    "subset_fits": 4.0,
}

SWF_JOBS = 120_000
SMACOF_POINTS = 30
RS_SERIES = 4_000
LUBLIN_JOBS = 1_000_000
BOOT_SHAPE = (14, 40)  # observations x variables, the paper's regime
BOOT_N = 20
SIM_JOBS = 100_000
SUBSET_K = 3  # the param experiment's subset size


def synthetic_workload(n: int = SWF_JOBS, seed: int = 7):
    """An archive-shaped workload: integer times, sparse avg_cpu decimals.

    Field conventions copy the Parallel Workloads Archive: whole-second
    times, power-of-two node counts, ``-1`` for unrecorded fields, and
    ``avg_cpu_time`` as the one column that carries decimals — exactly
    the shape the integer-first fast scan is built for.
    """
    from repro.workload import MachineInfo, Workload

    rng = np.random.default_rng(seed)
    procs = 2 ** rng.integers(0, 9, n)
    run_time = rng.integers(1, 86_400, n).astype(float)
    avg_cpu = np.round(rng.random(n) * 100, 2)
    avg_cpu[rng.random(n) < 0.15] = -1.0
    columns = {
        "job_id": np.arange(1, n + 1),
        "submit_time": np.cumsum(rng.integers(0, 20, n)).astype(float),
        "wait_time": rng.integers(0, 3_600, n).astype(float),
        "run_time": run_time,
        "used_procs": procs,
        "avg_cpu_time": avg_cpu,
        "used_memory": np.full(n, -1.0),
        "requested_procs": procs,
        "requested_time": run_time + rng.integers(0, 600, n),
        "requested_memory": np.full(n, -1.0),
        "status": (rng.random(n) >= 0.05).astype(np.int64),
        "user_id": rng.integers(1, 400, n),
        "group_id": rng.integers(1, 30, n),
        "executable_id": rng.integers(1, 60, n),
        "queue": rng.integers(0, 5, n),
        "partition": np.full(n, -1),
        "preceding_job": np.full(n, -1),
        "think_time": np.full(n, -1.0),
    }
    machine = MachineInfo(name="synthetic-cluster", processors=256)
    return Workload(columns, machine, name="synthetic")


def _measure_pair(
    fast: Callable[[], object], reference: Callable[[], object], rounds: int
) -> Dict[str, float]:
    """Best-of-N for both kernels, with the rounds interleaved.

    Alternating fast/reference within each round means a mid-measurement
    frequency or load shift hits both sides, keeping the *ratio* honest
    even when the absolute timings wander.
    """
    from repro.obs import clock

    fast()  # warm caches and lazy imports outside the timed region
    fast_s = ref_s = float("inf")
    for _ in range(rounds):
        t0 = clock.perf()
        fast()
        fast_s = min(fast_s, clock.perf() - t0)
        t0 = clock.perf()
        reference()
        ref_s = min(ref_s, clock.perf() - t0)
    return {"reference_s": ref_s, "fast_s": fast_s, "speedup": ref_s / fast_s}


def measure_swf_ingest(n_jobs: int = SWF_JOBS, *, reps: int = 3) -> Dict[str, float]:
    from repro.workload.swf import read_swf, read_swf_reference, write_swf

    workload = synthetic_workload(n_jobs)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "synthetic.swf")
        write_swf(workload, path)
        return _measure_pair(
            lambda: read_swf(path), lambda: read_swf_reference(path), reps
        )


def measure_smacof(n_points: int = SMACOF_POINTS, *, reps: int = 2) -> Dict[str, float]:
    from repro.coplot.mds.base import pairwise_euclidean
    from repro.coplot.mds.smacof import smacof

    d = pairwise_euclidean(np.random.default_rng(0).normal(size=(n_points, 5)))
    return _measure_pair(
        lambda: smacof(d, seed=1, n_init=8, engine="batched"),
        lambda: smacof(d, seed=1, n_init=8, engine="reference"),
        reps,
    )


def measure_rs_pox(n: int = RS_SERIES, *, reps: int = 5) -> Dict[str, float]:
    from repro.selfsim.rs_analysis import rs_pox_points, rs_pox_points_reference

    x = np.cumsum(np.random.default_rng(3).standard_normal(n))
    return _measure_pair(
        lambda: rs_pox_points(x), lambda: rs_pox_points_reference(x), reps
    )


def measure_render(n_jobs: int = SWF_JOBS, *, reps: int = 3) -> Dict[str, float]:
    from repro.workload.swf import render_swf_text, render_swf_text_reference

    workload = synthetic_workload(n_jobs)
    return _measure_pair(
        lambda: render_swf_text(workload),
        lambda: render_swf_text_reference(workload),
        reps,
    )


def measure_lublin(n_jobs: int = LUBLIN_JOBS, *, reps: int = 3) -> Dict[str, float]:
    from repro.models import LublinModel

    model = LublinModel()
    return _measure_pair(
        lambda: model.generate(n_jobs, seed=11, engine="batched"),
        lambda: model.generate(n_jobs, seed=11, engine="reference"),
        reps,
    )


def measure_bootstrap(
    n_boot: int = BOOT_N, shape=BOOT_SHAPE, *, reps: int = 3
) -> Dict[str, float]:
    from repro.coplot.extend import bootstrap_stability

    rng = np.random.default_rng(7)
    y = rng.normal(size=shape) + np.linspace(0, 3, shape[1])
    return _measure_pair(
        lambda: bootstrap_stability(y, n_boot=n_boot, seed=0, engine="batched"),
        lambda: bootstrap_stability(y, n_boot=n_boot, seed=0, engine="reference"),
        reps,
    )


def simulator_workload(n: int = SIM_JOBS, seed: int = 0, *, machine_procs: int = 512,
                       load: float = 0.94, mean_rt: float = 400.0):
    """A near-saturation FCFS stream: queues stay long enough that the
    reference loop's per-event queue rebuild costs dominate."""
    from repro.workload import MachineInfo, Workload

    rng = np.random.default_rng(seed)
    run_time = rng.exponential(mean_rt, n)
    procs = 2 ** rng.integers(0, 6, n)
    rate = load * machine_procs / (mean_rt * procs.mean())
    submit = np.cumsum(rng.exponential(1.0 / rate, n))
    machine = MachineInfo(name="sim-bench", processors=machine_procs)
    return Workload.from_arrays(
        machine=machine,
        name="sim-bench",
        job_id=np.arange(1, n + 1),
        submit_time=submit,
        run_time=run_time,
        used_procs=procs.astype(np.int64),
    )


def measure_simulate_fcfs(n_jobs: int = SIM_JOBS, *, reps: int = 3) -> Dict[str, float]:
    from repro.scheduler import FcfsScheduler, UnlimitedAllocator, simulate, simulate_reference

    workload = simulator_workload(n_jobs)
    return _measure_pair(
        lambda: simulate(workload, FcfsScheduler(), UnlimitedAllocator()),
        lambda: simulate_reference(workload, FcfsScheduler(), UnlimitedAllocator()),
        reps,
    )


def measure_subset_fits(n_candidates: int = 8, *, reps: int = 3) -> Dict[str, float]:
    """``best_subset`` over the first *n_candidates* of the ``param``
    experiment's candidates (all 8: 56 subsets) on the Table 1
    observations, against fitting the same subsets one ``Coplot.fit``
    at a time."""
    import itertools

    from repro.coplot.selection import best_subset
    from repro.experiments.common import default_coplot, production_matrix
    from repro.experiments.parameterization import CANDIDATE_SIGNS

    signs = list(CANDIDATE_SIGNS[:n_candidates])
    y, labels = production_matrix(signs)
    cp = default_coplot(seed=0, n_init=4)
    combos = [list(c) for c in itertools.combinations(range(len(signs)), SUBSET_K)]

    def fit_loop():
        return [
            cp.fit(y[:, cols], labels=labels, signs=[signs[j] for j in cols])
            for cols in combos
        ]

    return _measure_pair(
        lambda: best_subset(y, SUBSET_K, labels=labels, signs=signs, coplot=cp, top=8),
        fit_loop,
        reps,
    )


def main(argv=None) -> int:
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small inputs, no gate, no BENCH_perf.json"
    )
    args = parser.parse_args(argv)

    if args.quick:
        results = {
            "swf_ingest": measure_swf_ingest(5_000, reps=1),
            "smacof_n_init8": measure_smacof(12, reps=1),
            "rs_pox": measure_rs_pox(500, reps=1),
            "swf_render": measure_render(5_000, reps=1),
            "lublin_generate": measure_lublin(20_000, reps=1),
            "bootstrap_stability": measure_bootstrap(4, (10, 12), reps=1),
            "simulate_fcfs": measure_simulate_fcfs(5_000, reps=1),
            "subset_fits": measure_subset_fits(5, reps=1),
        }
    else:
        results = {
            "swf_ingest": measure_swf_ingest(),
            "smacof_n_init8": measure_smacof(),
            "rs_pox": measure_rs_pox(),
            "swf_render": measure_render(),
            "lublin_generate": measure_lublin(),
            "bootstrap_stability": measure_bootstrap(),
            "simulate_fcfs": measure_simulate_fcfs(),
            "subset_fits": measure_subset_fits(),
        }

    failed = []
    for kernel, stats in results.items():
        target = TARGETS.get(kernel)
        stats["target"] = target
        stats["gated"] = target is not None and not args.quick
        stats["pass"] = target is None or stats["speedup"] >= target or args.quick
        floor = f">= {target:.0f}x required" if stats["gated"] else "informational"
        verdict = "ok" if stats["pass"] else "FAIL"
        print(
            f"{kernel:16s} ref {stats['reference_s']:8.4f}s  "
            f"fast {stats['fast_s']:8.4f}s  {stats['speedup']:5.2f}x  ({floor}) {verdict}"
        )
        if not stats["pass"]:
            failed.append(kernel)

    if not args.quick:
        payload = {
            "suite": "vectorized-kernels",
            "jobs": SWF_JOBS,
            "smacof_points": SMACOF_POINTS,
            "lublin_jobs": LUBLIN_JOBS,
            "bootstrap": {"n_boot": BOOT_N, "shape": list(BOOT_SHAPE)},
            "sim_jobs": SIM_JOBS,
            "subset_fits": {"candidates": 8, "k": SUBSET_K, "n_init": 4},
            "targets": TARGETS,
            "results": results,
            "ok": not failed,
        }
        with open(OUT_PATH, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"Written to {OUT_PATH}")

    if failed:
        print(f"speedup floor missed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
