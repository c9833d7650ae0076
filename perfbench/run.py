"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite-full --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
nothing wrapped, and prints the wall-clock figures beside them;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything the run writes — the full result
with its environment stamp, the request sequence, the spans — goes to
``perfbench/out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from typing import Any, Dict

from common import OUT, ROOT, SRC, environment_stamp, fresh_dir, program_present

#: Per-layer metrics of layers a workload never reaches read 0 there.
NOT_ON_PATH = {
    "suite-full": ("service.", "obs."),
    "service-hot": ("experiments.claims_held",),
    "service-cold": ("experiments.claims_held",),
}


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOT_ON_PATH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _select(spec: Dict[str, Any], workload: str, trace: int, measured: Dict[str, float]):
    """The metrics BENCHMARK.json names for this mode, with its units."""
    selected: Dict[str, Dict[str, Any]] = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name in measured:
            value = measured[name]
        elif name.startswith(NOT_ON_PATH[workload]):
            value = 0.0
        else:
            raise KeyError(f"{workload} did not measure {name}")
        selected[name] = {"value": float(value), "unit": entry["unit"]}
    return selected


def main(argv=None) -> int:
    args = _parse(argv)
    if not program_present():
        print(f"perfbench: no program at {SRC / 'repro'}; run from a checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seed = args.seed % 2**32
    out = fresh_dir(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.environ["TMPDIR"] = str(fresh_dir(out / "tmp"))
    sys.path.insert(0, str(SRC))

    if args.workload == "suite-full":
        import suite

        result = suite.run(seed, args.seconds, bool(args.trace), out)
    else:
        import service

        result = service.run(args.workload, seed, args.seconds, bool(args.trace), out)

    shutil.rmtree(out / "tmp", ignore_errors=True)
    metrics = _select(spec, args.workload, args.trace, result["metrics"])
    correct = bool(result["correct"])
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):
            correct = False
            entry["value"] = None
    summary = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    stamp = environment_stamp(result["dirs"], seed=args.seed, seconds=args.seconds,
                              trace=args.trace, **result["settings"])
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**summary, "workload": args.workload, "environment": stamp,
                   "detail": result["detail"]}, fh, indent=2, sort_keys=True, default=str)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['failed']} failed of {summary['attempted']} attempted, "
          f"{'correct' if correct else 'INCORRECT'}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']} {entry['unit']}")
    if not args.trace:
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        print("  wall clock (reported as per-layer metrics by the traced run):")
        for name, value in result["wall"].items():
            print(f"  {name} = {value} {units[name]}")
    t = result["detail"]["latency_tail"]
    print(f"  (wall.latency_tail_ms is p{t['percentile']} of {t['samples']} samples)")
    for error in result["detail"].get("errors", []):
        print(f"  error: {error}")
    print(f"  full result: {(out / 'result.json').relative_to(ROOT)}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
