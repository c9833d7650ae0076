"""``python -m repro.service`` — boot the analysis service.

Runs :class:`repro.service.app.ServiceApp` behind a threading HTTP
server and drains gracefully on SIGTERM/SIGINT: the listener stops
accepting connections, live jobs get up to ``--drain-timeout-s`` to
finish, journals and traces are flushed, then the process exits 0.
Jobs still running when the drain bound expires are logged, their
workers killed, and their records requeued for the next boot — the
journal, not the drain, owns durability.  A second signal during the
drain aborts immediately.
"""

from __future__ import annotations

import argparse
import signal
import threading
from typing import List, Optional

from repro.service.app import DEFAULT_MAX_BODY_BYTES, ServiceApp, make_server

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve co-plot analyses over HTTP (see docs/SERVICE.md).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    parser.add_argument(
        "--port", type=int, default=8742, help="bind port, 0 for ephemeral (default %(default)s)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="concurrent analysis worker subprocesses (default %(default)s)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="admitted jobs beyond the workers before POSTs shed with "
        "429 over_capacity (default %(default)s)",
    )
    parser.add_argument(
        "--max-body-bytes",
        type=int,
        default=DEFAULT_MAX_BODY_BYTES,
        help="largest accepted request body (default %(default)s)",
    )
    parser.add_argument(
        "--state-dir",
        default="service-state",
        help="journal, uploads, runs and trace live here (default %(default)s)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="runtime result cache root (default <state-dir>/cache)",
    )
    parser.add_argument(
        "--job-timeout-s",
        type=float,
        default=None,
        help="hard per-job wall-clock limit in seconds; the worker is "
        "SIGKILLed at the deadline (default none)",
    )
    parser.add_argument(
        "--job-retries",
        type=int,
        default=2,
        help="retries per job for transient failures, with jittered "
        "exponential backoff (default %(default)s)",
    )
    parser.add_argument(
        "--poison-threshold",
        type=int,
        default=2,
        help="worker crashes (across restarts) before a spec is "
        "quarantined as poisoned (default %(default)s)",
    )
    parser.add_argument(
        "--drain-timeout-s",
        type=float,
        default=30.0,
        help="seconds the shutdown drain waits for live jobs before "
        "killing their workers and requeueing them (default %(default)s)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SEED[:SPEC]",
        help="deterministic fault injection into job attempts, e.g. "
        "'7' or '7:hurst*=exit,p=0.5' (testing only)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.job_timeout_s is not None and args.job_timeout_s <= 0:
        parser.error("--job-timeout-s must be > 0")
    app = ServiceApp(
        args.state_dir,
        cache_dir=args.cache_dir,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_body_bytes=args.max_body_bytes,
        job_timeout_s=args.job_timeout_s,
        job_retries=args.job_retries,
        poison_threshold=args.poison_threshold,
        chaos=args.chaos,
    )
    server = make_server(app, args.host, args.port)
    host, port = server.server_address[:2]
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        if stop.is_set():  # second signal: give up on the drain
            raise SystemExit(130)
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _request_stop)

    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    print(
        f"repro.service listening on http://{host}:{port} "
        f"(state={args.state_dir}, workers={args.workers}, "
        f"queue_depth={args.queue_depth}, "
        f"recovered={app.recovered_jobs}, poisoned={app.poisoned_on_boot})"
        + (f" [chaos {args.chaos}]" if args.chaos else ""),
        flush=True,
    )
    stop.wait()
    print(f"repro.service draining (up to {args.drain_timeout_s:.0f}s)...", flush=True)
    server.shutdown()
    server.server_close()
    pending = app.close(wait=True, drain_timeout_s=args.drain_timeout_s)
    if pending:
        print(
            f"repro.service drain expired with {len(pending)} job(s) pending, "
            f"requeued for next boot: {', '.join(pending)}",
            flush=True,
        )
    serve_thread.join(timeout=5)
    print("repro.service stopped", flush=True)
    return 0
