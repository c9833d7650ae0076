"""Seeded benchmark inputs: SWF logs, the cold request sequence, the hot sets.

Everything the program under test receives is made here from the
workload seed, before any timing starts, and by this file's own code —
never by ``repro`` — so the inputs stay byte-identical across commits
of the program.  The same seed always gives the same bytes and specs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

import numpy as np

#: Jobs per uploaded log, by cold request class.
SMALL_LOG_JOBS = 5_000
LARGE_LOG_JOBS = 100_000

#: The four equal-share cold request classes, in canonical order.
COLD_CLASSES = ("coplot-upload", "hurst-upload", "compare-model", "coplot-archive")

#: Named inputs the service accepts (``repro.archive`` / ``repro.models`` names).
ARCHIVE_NAMES = ("CTC", "KTH", "LANL", "LLNL", "NASA", "SDSC")
MODEL_NAMES = ("Downey", "Feitelson96", "Feitelson97", "Jann", "Lublin")

#: Experiment references in the hot sets: the cheapest registry entries.
HOT_EXPERIMENTS = ("figure2", "figure3", "load")

#: Jobs in the named-workload and model inputs of service specs.
NAMED_JOBS = 1_000


def swf_rows(n_rows: int, seed: int) -> Tuple[bytes, np.ndarray]:
    """*n_rows* SWF job lines and the byte offset of every line start.

    A plain generative model — Poisson arrivals, log-normal run times,
    power-of-two sizes on a 128-processor machine, a Zipf-like user
    population — filling every field the Co-plot variables and the
    Hurst series read.  ``offsets`` has ``n_rows + 1`` entries, the last
    one the length of the text.
    """
    rng = np.random.default_rng([seed, n_rows])
    submit = np.cumsum(rng.exponential(90.0, n_rows)).astype(np.int64)
    run = np.clip(rng.lognormal(6.0, 1.8, n_rows), 1, 400_000).astype(np.int64)
    procs = (2 ** rng.integers(0, 8, n_rows)).astype(np.int64)
    users = np.minimum(rng.zipf(1.6, n_rows), 400).astype(np.int64)
    missing = np.full(n_rows, -1, dtype=np.int64)
    columns = [
        np.arange(1, n_rows + 1, dtype=np.int64),  # job id
        submit - submit[0],
        rng.exponential(300.0, n_rows).astype(np.int64),  # wait
        run,
        procs,
        (run * rng.uniform(0.4, 1.0, n_rows)).astype(np.int64),  # cpu per processor
        missing,  # used memory
        procs,  # requested processors
        (run * rng.uniform(1.0, 3.0, n_rows)).astype(np.int64),  # requested time
        missing,  # requested memory
        rng.choice(np.array([1, 0, 5]), n_rows, p=[0.9, 0.07, 0.03]),  # status
        users,
        users % 17 + 1,  # group
        rng.integers(1, 600, n_rows),  # executable
        rng.integers(1, 4, n_rows),  # queue
        np.ones(n_rows, dtype=np.int64),  # partition
        missing,  # preceding job
        missing,  # think time
    ]
    table = np.column_stack(columns).astype(np.int64)
    row = " ".join(["%d"] * table.shape[1]) + "\n"
    text = ((row * n_rows) % tuple(table.ravel().tolist())).encode("ascii")
    newlines = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))
    return text, np.concatenate(([0], newlines + 1))


class UploadLogs:
    """Distinct uploaded logs, each a seeded window of a per-size base log.

    Request *i* of a class gets its own row offset into the base log of
    its size, so every upload is a different log, while the run makes
    only two logs up front.  A window is a zero-copy view.
    """

    def __init__(self, seed: int, requests: List[Dict[str, Any]]) -> None:
        self._base: Dict[int, Tuple[bytes, np.ndarray]] = {}
        sizes = sorted({r["log_jobs"] for r in requests if "log_jobs" in r})
        for n_jobs in sizes:
            wanted = sum(1 for r in requests if r.get("log_jobs") == n_jobs)
            extra = max(n_jobs // 5, 2 * wanted)
            self._base[n_jobs] = swf_rows(n_jobs + extra, seed)
            rng = np.random.default_rng([seed, n_jobs, 1])
            offsets = iter(rng.permutation(extra + 1)[:wanted].tolist())
            for r in requests:
                if r.get("log_jobs") == n_jobs:
                    r["log_offset"] = next(offsets)

    def body(self, req: Dict[str, Any]) -> memoryview:
        text, starts = self._base[req["log_jobs"]]
        first = req["log_offset"]
        return memoryview(text)[starts[first]: starts[first + req["log_jobs"]]]


def upload_digest(body: bytes) -> str:
    """The service's content address of an (uncompressed) upload."""
    return hashlib.sha256(body).hexdigest()


def _sub_seed(*parts: int) -> int:
    return int(np.random.default_rng(list(parts)).integers(0, 2**31 - 1))


def cold_sequence(seed: int, n_requests: int) -> List[Dict[str, Any]]:
    """The cold workload's requests: every spec distinct, classes in equal share.

    Each block of four requests holds one request of every class in a
    seeded order, so any prefix of the sequence is balanced to within
    one request per class.  Upload requests carry ``log_jobs``; their
    bytes come from :class:`UploadLogs`.
    """
    rng = np.random.default_rng([seed, 7])
    requests: List[Dict[str, Any]] = []
    while len(requests) < n_requests:
        for cls in rng.permutation(COLD_CLASSES).tolist():
            i = len(requests)
            s = _sub_seed(seed, i)
            req: Dict[str, Any] = {"class": cls, "index": i}
            if cls == "coplot-upload":
                req["log_jobs"] = SMALL_LOG_JOBS
                req["doc"] = {"kind": "coplot", "params": {"label": f"U{i}", "seed": i % 7}}
            elif cls == "hurst-upload":
                req["log_jobs"] = LARGE_LOG_JOBS
                req["doc"] = {"kind": "hurst"}
            elif cls == "compare-model":
                req["doc"] = {
                    "kind": "compare",
                    "input": {
                        "model": MODEL_NAMES[i % len(MODEL_NAMES)],
                        "n_jobs": NAMED_JOBS,
                        "seed": s,
                    },
                    "params": {"n_jobs": NAMED_JOBS, "seed": s % 100_003},
                }
            else:
                req["doc"] = {
                    "kind": "coplot",
                    "input": {
                        "workload": ARCHIVE_NAMES[i % len(ARCHIVE_NAMES)],
                        "n_jobs": NAMED_JOBS,
                        "seed": s,
                    },
                }
            requests.append(req)
            if len(requests) == n_requests:
                break
    return requests


def hot_sets(seed: int, clients: int) -> List[List[Dict[str, Any]]]:
    """Disjoint per-client sets of small specs: coplot, hurst, compare, experiment.

    Every spec of client *c* carries a seed congruent to *c* modulo
    *clients*, so no two clients ever submit an equal spec (the service
    answers an equal in-flight spec with ``409``).
    """
    sets: List[List[Dict[str, Any]]] = []
    for c in range(clients):
        s = _sub_seed(seed, 1_000_003) * clients + c
        specs: List[Dict[str, Any]] = []
        for j in range(2):
            s_j = s + clients * j
            specs += [
                {
                    "kind": "coplot",
                    "input": {
                        "workload": ARCHIVE_NAMES[(c + 2 * j) % len(ARCHIVE_NAMES)],
                        "n_jobs": NAMED_JOBS,
                        "seed": s_j,
                    },
                },
                {
                    "kind": "hurst",
                    "input": {
                        "workload": ARCHIVE_NAMES[(c + 2 * j + 1) % len(ARCHIVE_NAMES)],
                        "n_jobs": NAMED_JOBS,
                        "seed": s_j,
                    },
                },
                {
                    "kind": "compare",
                    "input": {
                        "model": MODEL_NAMES[(c + j) % len(MODEL_NAMES)],
                        "n_jobs": NAMED_JOBS,
                        "seed": s_j,
                    },
                    "params": {"n_jobs": NAMED_JOBS, "seed": s_j},
                },
            ]
        specs += [
            {"kind": "experiment", "input": {"experiment": exp_id, "seed": s, "quick": True}}
            for exp_id in HOT_EXPERIMENTS
        ]
        sets.append(specs)
    return sets


def describe(requests: List[Dict[str, Any]]) -> List[str]:
    """One JSON line per request (class, spec, upload size) for the replay file."""
    return [
        json.dumps(
            {
                "index": r["index"],
                "class": r["class"],
                "spec": r["doc"],
                "upload_jobs": r.get("log_jobs"),
                "upload_row_offset": r.get("log_offset"),
            },
            sort_keys=True,
        )
        for r in requests
    ]
