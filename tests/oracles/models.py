"""Per-job generation loops, the oracles of the vectorized model samplers.

Each loop consumes its model's shared draw plan (``_draw_blocks``, or
``_prepare`` for the user-session model) and assembles the job stream
one job at a time with scalar arithmetic chosen to be bitwise identical
to the model's array assembly.  :func:`generate_reference` hands the
result to the same ``_assemble`` step as ``WorkloadModel.generate``
(column checks, anchoring at t = 0, sort by submit time), so a stream
built here compares with ``model.generate`` column for column.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.models.base import WorkloadModel
from repro.models.feitelson96 import Feitelson96Model
from repro.models.jann import JannModel
from repro.models.lublin import _OMEGA, LublinModel
from repro.models.usersession import UserSessionModel
from repro.util.rng import SeedLike, as_generator
from repro.workload.workload import Workload

__all__ = [
    "feitelson96_arrays",
    "generate_reference",
    "jann_arrays",
    "lublin_arrays",
    "usersession_arrays",
]


# -- Lublin --------------------------------------------------------------------


def _lublin_sizes(model: LublinModel, n: int, b: dict) -> np.ndarray:
    sizes = np.empty(n, dtype=np.int64)
    if model.machine_procs < 2:
        sizes.fill(1)
        return sizes
    machine = float(model.machine_procs)
    par_u = b["par_u"].tolist()
    low_u = b["low_u"].tolist() if "low_u" in b else []
    u_low = b["u_low"].tolist() if "u_low" in b else []
    u_high = b["u_high"].tolist() if "u_high" in b else []
    snap_u = b["snap_u"].tolist() if "snap_u" in b else []
    arr1 = np.empty(1)
    k = 0
    for i in range(n):
        if par_u[i] < model.serial_prob:
            sizes[i] = 1
            continue
        u = u_low[k] if low_u[k] < model.size_low_prob else u_high[k]
        lg = float(round(u)) if snap_u[k] < model.pow2_prob else u
        k += 1
        # Size-1 ufunc call: bitwise identical to the vectorized 2**x.
        arr1[0] = lg
        size = float(np.round(2.0**arr1)[0])
        sizes[i] = int(min(max(size, 1.0), machine))
    return sizes


def _lublin_runtimes(model: LublinModel, n: int, b: dict, sizes: np.ndarray) -> np.ndarray:
    out = np.empty(n)
    gamma_short = b["gamma_short"]
    gamma_long = b["gamma_long"]
    short_u = b["short_u"].tolist()
    denom = max(math.log2(model.machine_procs), 1.0)
    base = model.p_short_base
    slope = model.p_short_slope
    arr1 = np.empty(1)
    si = li = 0
    for i in range(n):
        arr1[0] = sizes[i]
        log2_size = float(np.log2(arr1)[0])
        p_short = min(max(base + slope * log2_size / denom, 0.05), 0.95)
        if short_u[i] < p_short:
            out[i] = gamma_short[si]
            si += 1
        else:
            out[i] = gamma_long[li]
            li += 1
    return out


def _lublin_arrivals(model: LublinModel, n: int, b: dict) -> np.ndarray:
    theta, amp, offset, n_fp, n_newton = model._cycle_plan()
    a = model.cycle_amplitude
    gaps = b["gaps"].tolist()
    submit = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = acc + gaps[i]
        t = acc
        for _ in range(n_fp):
            t = acc - (amp * math.sin(_OMEGA * t - theta) + offset)
        for _ in range(n_newton):
            f = t + (amp * math.sin(_OMEGA * t - theta) + offset) - acc
            w = 1.0 + a * math.cos(_OMEGA * t - theta)
            t = t - f / w
        submit[i] = t
    return submit - submit[0]


def lublin_arrays(model: LublinModel, n_jobs: int, rng: np.random.Generator) -> dict:
    """Lublin's job stream, re-deriving sizes and runtime branches per job
    from the raw uniforms and inverting the daily cycle with ``math``."""
    b = model._draw_blocks(n_jobs, rng)
    sizes = _lublin_sizes(model, n_jobs, b)
    run_time = _lublin_runtimes(model, n_jobs, b, sizes)
    submit = _lublin_arrivals(model, n_jobs, b)
    return {
        "submit_time": submit,
        "run_time": run_time,
        "used_procs": sizes,
        "user_id": b["users"],
        "wait_time": np.zeros(n_jobs),
    }


# -- Feitelson 96 / 97 ---------------------------------------------------------


def feitelson96_arrays(
    model: Feitelson96Model, n_jobs: int, rng: np.random.Generator
) -> dict:
    """Feitelson's stream (1996 and 1997), one repetition at a time."""
    b = model._draw_blocks(n_jobs, rng)
    gaps = b["gaps"].tolist()
    all_sizes = b["sizes"]
    all_reps = b["reps"].tolist()
    all_runtimes = b["runtimes"].tolist()
    all_users = b["users"]

    submit = np.empty(n_jobs)
    run_time = np.empty(n_jobs)
    procs = np.empty(n_jobs, dtype=np.int64)
    users = np.empty(n_jobs, dtype=np.int64)
    execs = np.empty(n_jobs, dtype=np.int64)

    filled = 0
    distinct = 0
    clock = 0.0
    while filled < n_jobs:
        clock = clock + gaps[distinct]
        size = int(all_sizes[distinct])
        runtime = all_runtimes[distinct]
        user = int(all_users[distinct])
        n_rep = all_reps[distinct]
        distinct += 1
        for k in range(min(n_rep, n_jobs - filled)):
            # Pure model: each repetition is resubmitted as soon as the
            # previous run ends, i.e. k full runtimes after the first.
            submit[filled] = clock + k * runtime
            run_time[filled] = runtime
            procs[filled] = size
            users[filled] = user
            execs[filled] = distinct
            filled += 1
    return {
        "submit_time": submit,
        "run_time": run_time,
        "used_procs": procs,
        "user_id": users,
        "executable_id": execs,
        "wait_time": np.zeros(n_jobs),
    }


# -- Jann ----------------------------------------------------------------------


def jann_arrays(model: JannModel, n_jobs: int, rng: np.random.Generator) -> dict:
    """Jann's stream: each size range's renewal process accumulated per job."""
    machine = model.machine_procs
    submit = np.empty(n_jobs)
    procs = np.empty(n_jobs, dtype=np.int64)
    run_time = np.empty(n_jobs)
    offset = 0
    for cnt, sizes, runtimes, gap_arr in model._draw_blocks(n_jobs, rng):
        gaps = gap_arr.tolist()
        first = gaps[0]
        acc = 0.0
        for j in range(cnt):
            # Renewal process anchored at the range's first arrival.
            acc = acc + gaps[j]
            submit[offset + j] = acc - first
            procs[offset + j] = min(max(int(sizes[j]), 1), machine)
            run_time[offset + j] = runtimes[j]
        offset += cnt
    return {
        "submit_time": submit,
        "run_time": run_time,
        "used_procs": procs,
        "wait_time": np.zeros(n_jobs),
    }


# -- user sessions -------------------------------------------------------------


def usersession_arrays(
    model: UserSessionModel, n_jobs: int, rng: np.random.Generator
) -> dict:
    """The user-session stream: scalar per-user timelines merged by a heap."""
    profiles, users = model._prepare(n_jobs, rng)
    submit = np.empty(n_jobs)
    run_time = np.empty(n_jobs)
    procs = np.empty(n_jobs, dtype=np.int64)
    user_col = np.empty(n_jobs, dtype=np.int64)
    execs = np.empty(n_jobs, dtype=np.int64)
    think = np.empty(n_jobs)

    machine = model.machine_procs
    streams = []
    for u in users:
        streams.append(
            {
                "lengths": np.concatenate(u["lengths"]).tolist(),
                "runtimes": np.concatenate(u["runtimes"]).tolist(),
                "thinks": np.concatenate(u["thinks"]).tolist(),
                "idles": np.concatenate(u["idles"]).tolist(),
            }
        )

    # Rebuild each user's timeline with a scalar accumulation loop (the
    # oracle for the vectorized cumsum path), then k-way merge through a
    # heap keyed on (submit, user) — ties resolve to the smaller user id
    # and then submission order, exactly like the batched lexsort.
    submits_scalar = []
    for s in streams:
        lengths = s["lengths"]
        runtimes = s["runtimes"]
        thinks = s["thinks"]
        idles = s["idles"]
        out = []
        pos = 0
        clock = 0.0
        for sess, length in enumerate(lengths):
            clock = clock + (idles[sess] if sess == 0 else 0.0)
            for k in range(length):
                if pos > 0:
                    prev_gap = idles[sess] if k == 0 else thinks[pos - 1]
                    # Grouped like the vectorized runtimes + gaps then
                    # cumsum, so the floating-point sums agree exactly.
                    clock = clock + (runtimes[pos - 1] + prev_gap)
                out.append(clock)
                pos += 1
        submits_scalar.append(out)

    heap = [(subs[0], uid, 0) for uid, subs in enumerate(submits_scalar)]
    heapq.heapify(heap)
    filled = 0
    while filled < n_jobs:
        when, uid, pos = heapq.heappop(heap)
        profile = profiles[uid]
        s = streams[uid]
        submit[filled] = when
        run_time[filled] = s["runtimes"][pos]
        procs[filled] = min(max(profile.size, 1), machine)
        user_col[filled] = profile.user_id
        execs[filled] = profile.executable_id
        think[filled] = s["thinks"][pos]
        filled += 1
        nxt = pos + 1
        subs = submits_scalar[uid]
        if nxt < len(subs):
            heapq.heappush(heap, (subs[nxt], uid, nxt))

    return {
        "submit_time": submit,
        "run_time": run_time,
        "used_procs": procs,
        "user_id": user_col,
        "executable_id": execs,
        "think_time": think,
        "wait_time": np.zeros(n_jobs),
    }


# Feitelson97Model subclasses Feitelson96Model and shares its loop.
_LOOPS = (
    (LublinModel, lublin_arrays),
    (Feitelson96Model, feitelson96_arrays),
    (JannModel, jann_arrays),
    (UserSessionModel, usersession_arrays),
)


def generate_reference(model: WorkloadModel, n_jobs: int, seed: SeedLike = None) -> Workload:
    """``model.generate(n_jobs, seed)`` with the stream built by its per-job loop."""
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    for cls, loop in _LOOPS:
        if isinstance(model, cls):
            return model._assemble(loop(model, int(n_jobs), as_generator(seed)))
    raise TypeError(f"no per-job oracle for {type(model).__name__}")
