"""Command-line entry point: ``python -m repro.experiments [ids...]``.

Runs the requested experiments (all of them by default) on top of the
:mod:`repro.runtime` engine and prints each report.  Highlights:

* ``--jobs N`` fans experiments out across worker processes; ``--jobs 1``
  (the default) runs inline and serially.
* Results are memoized in a content-addressed cache keyed on the
  experiment id, its kwargs (seed included) and a fingerprint of the
  ``repro`` source tree — re-runs with unchanged inputs are near-instant.
  Workers publish entries under a per-key advisory lock *as they
  finish*, so concurrent runs sharing a cache compute each key exactly
  once and a killed run keeps everything it completed.  ``--no-cache``
  forces recomputation.
* ``--out DIR`` writes reports/CSV/SVG into a per-run stamped
  subdirectory (``DIR/run-<UTC>-seed<seed>[...]``) with a ``DIR/latest``
  symlink, plus an append-only ``journal.jsonl`` recording each task
  outcome the moment it lands.
* ``--resume RUN_DIR`` re-opens a crashed run: the journal's seed/quick
  /ids are adopted, tasks already journaled ``ok`` are served from the
  cache, and only the remainder re-executes.
* ``--chaos SEED[:SPEC]`` injects seeded, replayable faults (raise,
  hang, corrupt, exit) into task attempts — the failure drills of
  docs/ROBUSTNESS.md.
* ``--trace FILE`` streams a JSONL trace of the run-level records (one
  summary span per task with wall time, cache hit/miss, retries, peak
  RSS; executor events; run metrics) into FILE, replacing it, and
  prints a digest.
* One failed experiment no longer aborts the batch: the failure is
  reported, the rest complete, and the exit code is nonzero (1).  Claim
  misses exit 2 unless ``--no-fail-on-miss`` is given.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional

from repro.experiments.registry import REGISTRY, build_kwargs, execute_experiment_cached
from repro.obs import (
    METRICS_NAME,
    PROFILE_DIR_NAME,
    TRACE_NAME,
    MetricsRegistry,
    Tracer,
    TraceWriter,
    digest,
    set_tracer,
)
from repro.obs import clock as obs_clock
from repro.runtime import (
    JOURNAL_NAME,
    DagExecutor,
    ResultCache,
    RunJournal,
    TaskResult,
    TaskSpec,
    historical_wall_times,
    longest_first,
    parse_chaos_spec,
)
from repro.util.atomicio import atomic_symlink, atomic_write_text

__all__ = ["main"]

#: Exit codes: experiment exceptions/timeouts beat claim misses.
EXIT_OK = 0
EXIT_TASK_FAILURE = 1
EXIT_CLAIM_MISS = 2

_DEFAULT_CACHE_DIR = os.path.join("results", "cache")


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _run_dir_name(*, seed: int, quick: bool) -> str:
    # Run directories are wall-clock stamped so successive runs sort and
    # never collide; the stamp never reaches an experiment or cache key.
    # (repro.obs.clock is the sanctioned wall-clock module, REP003.)
    return f"run-{obs_clock.utc_stamp()}-seed{seed}" + ("-quick" if quick else "")


def _prepare_run_dir(out_dir: str, *, seed: int, quick: bool) -> str:
    """Create a fresh per-run subdirectory and point ``latest`` at it."""
    os.makedirs(out_dir, exist_ok=True)
    name = _run_dir_name(seed=seed, quick=quick)
    run_dir = os.path.join(out_dir, name)
    suffix = 1
    while os.path.exists(run_dir):  # same-second rerun: never clobber
        suffix += 1
        run_dir = os.path.join(out_dir, f"{name}.{suffix}")
    os.makedirs(run_dir)
    link = os.path.join(out_dir, "latest")
    try:
        # Atomic replace: concurrent runs (e.g. service requests sharing
        # an --out root) each land a complete link instead of racing on
        # unlink+symlink and crashing on FileExistsError.
        atomic_symlink(os.path.basename(run_dir), link, target_is_directory=True)
    except OSError:  # filesystems without symlink support
        atomic_write_text(os.path.join(out_dir, "LATEST"), os.path.basename(run_dir) + "\n")
    return run_dir


def _write_outputs(run_dir: str, exp_id: str, payload: Dict[str, Any]) -> None:
    atomic_write_text(os.path.join(run_dir, f"{exp_id}.txt"), payload["report"] + "\n")
    artifacts = payload.get("artifacts") or {}
    for ext in ("csv", "svg"):
        if ext in artifacts:
            atomic_write_text(os.path.join(run_dir, f"{exp_id}.{ext}"), artifacts[ext])


def _valid_envelope(value: Any) -> bool:
    """Does a worker's return value look like a real result envelope?

    A ``corrupt``-kind chaos fault (or a genuinely buggy worker) returns
    garbage *successfully*; this validation is the layer that catches it.
    """
    return (
        isinstance(value, dict)
        and isinstance(value.get("payload"), dict)
        and isinstance(value["payload"].get("report"), str)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of Talby, Feitelson & Raveh (1999).",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids to run (default: all); see --list",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument(
        "--quick", action="store_true", help="smaller job counts for a fast smoke run"
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1 = serial, inline)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything, ignoring (but refreshing) the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=_DEFAULT_CACHE_DIR,
        help=f"result cache location (default {_DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL trace of task summaries, events and metrics to FILE",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="export run metrics in Prometheus text format to FILE",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each task into <run-dir>/profiles/<task>.pstats (needs --out/--resume)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment attempt timeout (default: none)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retries per experiment after a failure (default 0)",
    )
    parser.add_argument(
        "--chaos",
        metavar="SEED[:SPEC]",
        default=None,
        help=(
            "inject seeded, replayable faults; SPEC is ';'-separated rules of "
            "comma-separated key=value fields (match, kind, p, max_hits, hang_s, "
            "exit_code) with MATCH=KIND shorthand, e.g. 7:table*=raise,p=0.5"
        ),
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_DIR",
        default=None,
        help="resume a crashed run from its journal, re-executing only unfinished tasks",
    )
    parser.add_argument(
        "--fail-on-miss",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exit nonzero when a paper claim does not hold (default: on)",
    )
    parser.add_argument(
        "--out", metavar="DIR", default=None, help="also write reports/CSV/SVG into DIR"
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        default=None,
        help="write a markdown claim scorecard across all runs to FILE",
    )
    args = parser.parse_args(argv)

    if args.list:
        for exp_id in REGISTRY:
            print(exp_id)
        return EXIT_OK
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be > 0")

    fault_plan = None
    if args.chaos:
        try:
            fault_plan = parse_chaos_spec(args.chaos)
        except ValueError as exc:
            parser.error(f"--chaos: {exc}")

    run_dir: Optional[str] = None
    journaled_ok: Dict[str, Dict[str, Any]] = {}
    if args.resume:
        if args.out:
            parser.error("--resume reuses the original run directory; drop --out")
        run_dir = args.resume
        if not os.path.isdir(run_dir):
            parser.error(f"--resume: {run_dir} is not a run directory")
        meta, entries = RunJournal.load(os.path.join(run_dir, JOURNAL_NAME))
        journaled_ok = {t: e for t, e in entries.items() if e.get("status") == "ok"}
        # The journal's meta pins what the crashed run was computing;
        # explicit ids on the command line still narrow the resume.
        if "seed" in meta:
            args.seed = int(meta["seed"])
        if "quick" in meta:
            args.quick = bool(meta["quick"])
        if not args.ids and isinstance(meta.get("ids"), list):
            args.ids = [str(i) for i in meta["ids"]]

    ids = args.ids or list(REGISTRY)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; known: {', '.join(REGISTRY)}"
        )

    per_exp_kwargs = {
        exp_id: build_kwargs(REGISTRY[exp_id], seed=args.seed, quick=args.quick)
        for exp_id in ids
    }

    # Journal-driven scheduling: harvest the previous run's wall times
    # *before* --out repoints the ``latest`` symlink at the fresh dir.
    history: Dict[str, float] = {}
    if run_dir is None and args.out:
        history = historical_wall_times(os.path.join(args.out, "latest"))
        run_dir = _prepare_run_dir(args.out, seed=args.seed, quick=args.quick)
    journal = RunJournal(os.path.join(run_dir, JOURNAL_NAME)) if run_dir else None
    if journal is not None and not args.resume:
        journal.meta(seed=args.seed, quick=args.quick, ids=list(ids))

    if args.profile and run_dir is None:
        parser.error("--profile needs --out DIR (or --resume) to hold the profiles")
    profile_dir = os.path.join(run_dir, PROFILE_DIR_NAME) if args.profile else None

    # Observability: with a run dir, spans/events stream into
    # <run-dir>/trace.jsonl as they close (crash-safe, schema v2); the
    # worker envelope below hangs every worker's spans under the run span.
    run_started = obs_clock.now()
    run_t0 = obs_clock.perf()
    writer: Optional[TraceWriter] = None
    obs_ctx: Optional[Dict[str, Any]] = None
    root_span_id: Optional[str] = None
    sinks: List[TraceWriter] = []
    if run_dir is not None:
        writer = TraceWriter(os.path.join(run_dir, TRACE_NAME))
        sinks.append(writer)
        root_span_id = obs_clock.new_id()
        set_tracer(Tracer(writer, trace_id=writer.trace_id, parent_id=root_span_id))
        obs_ctx = {
            "path": os.path.join(run_dir, TRACE_NAME),
            "trace_id": writer.trace_id,
            "parent_id": root_span_id,
        }
    if args.trace:
        # --trace FILE gets only the run-level records below, never the
        # in-experiment spans: no ambient tracer writes to it.
        if os.path.lexists(args.trace):
            os.remove(args.trace)
        sinks.append(TraceWriter(args.trace))
    metrics = MetricsRegistry()
    task_spans: Dict[str, Dict[str, Any]] = {}

    def emit(type_: str, **fields: Any) -> Dict[str, Any]:
        # Run-level records: task summaries, executor events, run metrics.
        record = {"type": type_, "ts": round(obs_clock.now(), 6), **fields}
        for sink in sinks:
            sink.emit(record)
        return record

    def on_event(kind: str, **fields: Any) -> None:
        emit("event", kind=kind, **fields)

    cache = ResultCache(args.cache_dir)
    keys = {exp_id: cache.key(exp_id, per_exp_kwargs[exp_id]) for exp_id in ids}
    payloads: Dict[str, Dict[str, Any]] = {}
    if not args.no_cache:
        for exp_id in ids:
            hit = cache.get(keys[exp_id])
            if hit is None and exp_id in journaled_ok:
                # The source changed between crash and resume: fall back
                # to the key the journal recorded for the completed task.
                old_key = journaled_ok[exp_id].get("key")
                if old_key and old_key != keys[exp_id]:
                    hit = cache.get(old_key)
            if hit is not None:
                payloads[exp_id] = hit
                if journal is not None:
                    journal.record(exp_id, status="ok", key=keys[exp_id])
            elif exp_id in journaled_ok:
                print(f"[resume] {exp_id}: journaled ok but cache entry missing; recomputing")

    misses = [exp_id for exp_id in ids if exp_id not in payloads]
    if args.resume:
        print(
            f"Resuming {run_dir}: {len(ids) - len(misses)} of {len(ids)} task(s) "
            f"already complete, {len(misses)} to run"
        )

    def on_result(result: TaskResult) -> None:
        # Journal every terminal outcome the instant it lands — this is
        # what makes a kill -9 at any point resumable.
        if journal is None:
            return
        status = result.status.value
        key = keys.get(result.id)
        if result.ok:
            if _valid_envelope(result.value):
                key = result.value.get("key") or key
            else:
                status = "corrupt"
        journal.record(
            result.id, status=status, key=key, attempts=result.attempts, wall_s=result.wall_s
        )

    # Longest-task-first submission (LPT) from the previous run's journal;
    # with no history the order is the registry order, unchanged.
    ordered_misses = longest_first(misses, history)
    if history and ordered_misses != misses:
        on_event("schedule", policy="longest_first", order=list(ordered_misses))
    tasks = [
        TaskSpec(
            id=exp_id,
            fn=execute_experiment_cached,
            kwargs={
                "exp_id": exp_id,
                "kwargs": per_exp_kwargs[exp_id],
                "cache_dir": args.cache_dir,
                "fingerprint": cache.fingerprint,
                "refresh": bool(args.no_cache),
                "obs_ctx": obs_ctx,
                "profile_dir": profile_dir,
            },
            timeout=args.timeout if args.timeout is not None else REGISTRY[exp_id].timeout_s,
            retries=args.retries,
        )
        for exp_id in ordered_misses
    ]
    executor = DagExecutor(
        jobs=args.jobs,
        fault_plan=fault_plan,
        on_result=on_result,
        on_event=on_event,
        metrics=metrics,
    )
    results = executor.run(tasks)

    envelopes: Dict[str, Dict[str, Any]] = {}
    corrupt: set = set()
    for exp_id in misses:
        result = results[exp_id]
        if not result.ok:
            continue
        if _valid_envelope(result.value):
            envelopes[exp_id] = result.value
            payloads[exp_id] = result.value["payload"]
        else:
            corrupt.add(exp_id)

    task_failures = 0
    claim_misses = 0
    worker_hits = 0
    scorecard = []
    for exp_id in ids:
        payload = payloads.get(exp_id)
        cached = exp_id not in results
        result = None if cached else results[exp_id]
        wall = 0.0 if cached else result.wall_s
        # One id-less summary span per task; its ``task`` field is what
        # ``repro.obs diff`` and the digest key on.
        summary = {
            "name": f"task:{exp_id}",
            "task": exp_id,
            "wall_s": round(wall, 6),
            "retries": 0 if cached else max(0, result.attempts - 1),
            "peak_rss_kb": None if cached else result.peak_rss_kb,
        }
        if payload is None:
            task_failures += 1
            status = "corrupt" if exp_id in corrupt else result.status.value
            error = (
                "worker returned an invalid result payload"
                if exp_id in corrupt
                else result.error
            )
            task_spans[exp_id] = emit("span", status=status, cache_hit=False, **summary)
            print(f"=== {exp_id}: {status.upper()} ===")
            print(f"[{exp_id} {status}: {error}]\n")
            continue
        worker_hit = False if cached else bool(envelopes[exp_id].get("cache_hit"))
        worker_hits += worker_hit
        task_spans[exp_id] = emit(
            "span",
            status="ok",
            cache_hit=cached or worker_hit,
            compute_s=payload.get("compute_s"),
            **summary,
        )
        print(payload["report"])
        if cached or worker_hit:
            print(f"[{exp_id} cached; originally computed in {payload.get('compute_s', 0):.1f}s]\n")
        else:
            print(f"[{exp_id} finished in {wall:.1f}s]\n")
        claims = payload.get("claims") or []
        if claims:
            claim_misses += sum(0 if c["holds"] else 1 for c in claims)
            scorecard.append((exp_id, wall, claims))
        if run_dir:
            _write_outputs(run_dir, exp_id, payload)

    hits = sum(1 for exp_id in ids if exp_id in payloads and exp_id not in results) + worker_hits
    emit("metric", name="cache_hits", value=hits)
    emit("metric", name="cache_misses", value=len(ids) - hits)
    emit("metric", name="task_failures", value=task_failures)
    emit("metric", name="claim_misses", value=claim_misses)
    metrics.inc("cache_hits_total", hits)
    metrics.inc("cache_misses_total", len(ids) - hits)
    metrics.inc("task_failures_total", task_failures)
    metrics.inc("claim_misses_total", claim_misses)
    metrics.set_gauge("run_wall_seconds", round(obs_clock.perf() - run_t0, 6))

    if run_dir:
        atomic_write_text(os.path.join(run_dir, METRICS_NAME), metrics.to_json())
        print(f"Outputs written to {run_dir}")
    if args.metrics_out:
        _ensure_parent(args.metrics_out)
        atomic_write_text(args.metrics_out, metrics.to_prometheus())
        print(f"Metrics written to {args.metrics_out}")
    if args.report:
        _ensure_parent(args.report)
        _write_scorecard(args.report, scorecard, seed=args.seed, quick=args.quick)
        print(f"Scorecard written to {args.report}")
    if args.trace:
        print(digest(task_spans))
        print(f"Trace written to {args.trace}")

    code = EXIT_OK
    if task_failures:
        print(f"{task_failures} experiment(s) failed; see the lines above.")
        code = EXIT_TASK_FAILURE
    elif claim_misses:
        print(f"{claim_misses} claim(s) did not hold; see [MISS] lines above.")
        if args.fail_on_miss:
            code = EXIT_CLAIM_MISS
    if writer is not None:
        # Close the run-level root span last: a trace with this span is a
        # run that exited cleanly; without it, a run that was killed.
        writer.emit(
            {
                "type": "span",
                "name": "run",
                "trace_id": writer.trace_id,
                "span_id": root_span_id,
                "parent_id": None,
                "ts": round(run_started, 6),
                "wall_s": round(obs_clock.perf() - run_t0, 6),
                "status": "ok" if code == EXIT_OK else "error",
                "exit_code": code,
            }
        )
        set_tracer(None)
    return code


def _write_scorecard(path: str, scorecard, *, seed: int, quick: bool) -> None:
    """Write the markdown claim table across every experiment run."""
    lines = [
        "# Reproduction scorecard",
        "",
        f"Seed {seed}, {'quick' if quick else 'full'} mode.",
        "",
        "| Experiment | Claim | Paper | Measured | Holds |",
        "|---|---|---|---|---|",
    ]
    total = held = 0
    for exp_id, _elapsed, claims in scorecard:
        for claim in claims:
            total += 1
            held += claim["holds"]
            lines.append(
                f"| {exp_id} | {claim['description']} | {claim['paper']} | "
                f"{claim['measured']} | {'yes' if claim['holds'] else 'NO'} |"
            )
    lines.append("")
    lines.append(f"**{held}/{total} claims hold.**")
    atomic_write_text(path, "\n".join(lines) + "\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
