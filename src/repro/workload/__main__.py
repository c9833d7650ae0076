"""Workload analysis CLI: ``python -m repro.workload trace.swf``.

The paper closes offering its "workload analysis program" alongside the
Co-plot program; this is that tool.  Given an SWF trace (or the name of a
synthesized archive workload), it prints:

* the Table 1-style variable vector;
* a Section 6 homogeneity audit: the trace is split into time windows,
  each mapped with the ten reference workloads, and windows that sit far
  from the trace's own centroid are flagged;
* a Section 9 self-similarity audit: Hurst estimates for the four
  attribute series by all three estimators (plus local Whittle);
* a Section 1 integrity audit: limit violations, undocumented downtime,
  dedication periods and duplicate records.

Usage::

    python -m repro.workload trace.swf [--windows 4] [--no-selfsim]
    python -m repro.workload CTC --jobs 20000     # synthesized archive log
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main"]


def _load(source: str, n_jobs: int, seed: int):
    from repro.archive import synthesize_workload
    from repro.archive.targets import PRODUCTION_NAMES, TABLE2_NAMES
    from repro.workload import read_swf

    if source in PRODUCTION_NAMES or source in TABLE2_NAMES:
        return synthesize_workload(source, n_jobs=n_jobs, seed=seed)
    return read_swf(source)


def _print_statistics(workload) -> None:
    from repro.util.tables import format_table
    from repro.workload import compute_statistics

    stats = compute_statistics(workload)
    print(
        format_table(
            ["variable", "value"],
            [[k, v] for k, v in stats.by_sign().items()],
            title=(
                f"{workload.name}: {len(workload)} jobs on "
                f"{workload.machine.processors} processors"
            ),
        )
    )


def _print_homogeneity(workload, n_windows: int) -> None:
    from repro.coplot import Coplot
    from repro.experiments.common import FIGURE3_SIGNS, production_matrix
    from repro.workload import compute_statistics, split_time_windows
    from repro.workload.variables import observation_matrix

    windows = split_time_windows(workload, n_windows, label_fmt="{name}-P{i}")
    usable = [w for w in windows if len(w) > 50]
    if len(usable) < 2:
        print("\n(too few populated windows for a homogeneity audit)")
        return
    stats = [compute_statistics(w) for w in usable]
    ref_y, ref_labels = production_matrix(FIGURE3_SIGNS)
    win_y, win_labels = observation_matrix(stats, FIGURE3_SIGNS)
    y = np.vstack([ref_y, win_y])
    result = Coplot(n_init=4).fit(
        y, labels=ref_labels + win_labels, signs=list(FIGURE3_SIGNS)
    )
    positions = np.array([result.position(l) for l in win_labels])
    centroid = positions.mean(axis=0)
    spread = float(
        np.mean(np.linalg.norm(result.coords - result.coords.mean(axis=0), axis=1))
    )
    print(f"\nHomogeneity audit ({len(usable)} windows; map spread {spread:.2f}):")
    flagged = 0
    for label, pos in zip(win_labels, positions):
        gap = float(np.linalg.norm(pos - centroid))
        unusual = gap > 0.75 * spread
        flagged += unusual
        marker = "UNUSUAL" if unusual else "ok"
        print(f"  {label}: distance from trace centroid {gap:.2f}  [{marker}]")
    if flagged:
        print(
            f"  -> {flagged} window(s) had unusual work patterns; "
            "Section 6 of the paper shows what to do next."
        )
    else:
        print("  -> the trace looks homogeneous over time.")


def _print_selfsim(workload) -> None:
    from repro.selfsim import SERIES_ATTRIBUTES, estimate_hurst, workload_series
    from repro.util.tables import format_table

    methods = ("rs", "variance", "periodogram", "whittle")
    rows: List[list] = []
    above = total = 0
    for attribute in SERIES_ATTRIBUTES:
        series = workload_series(workload, attribute)
        row: List[object] = [attribute]
        for method in methods:
            try:
                est = estimate_hurst(series, method)
                row.append(est.h)
                total += 1
                above += est.h > 0.5
            except (ValueError, RuntimeError):
                row.append(None)
        rows.append(row)
    print()
    print(
        format_table(
            ["series"] + [m.upper() for m in methods],
            rows,
            float_fmt="{:.2f}",
            title="Self-similarity audit (H = 0.5 none, toward 1.0 strong)",
        )
    )
    if total:
        print(f"{above}/{total} estimates above 0.5.")


def _print_integrity(workload) -> None:
    from repro.workload import audit_workload

    report = audit_workload(workload)
    print(f"\nIntegrity audit: {report.summary()}")
    for gap in report.downtime[:5]:
        print(
            f"  downtime? {gap.duration / 3600.0:.1f} h of silence starting "
            f"at t={gap.start:.0f}s"
        )
    for period in report.dedication[:5]:
        print(
            f"  dedication? user {period.user_id} took "
            f"{period.share:.0%} of the work in one window"
        )
    if report.is_clean:
        print("  -> no integrity findings.")


def main(argv: Optional[List[str]] = None) -> int:
    """Run the workload-analysis CLI on *argv* (default ``sys.argv[1:]``)
    and print its report; returns 0."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description="Analyze an SWF trace (or a synthesized archive workload).",
    )
    parser.add_argument(
        "source",
        help="path to an SWF file, or an archive workload name (CTC, LANLb, L3...)",
    )
    parser.add_argument(
        "--windows", type=int, default=4, help="time windows for the homogeneity audit"
    )
    parser.add_argument(
        "--jobs", type=int, default=20000, help="jobs when synthesizing by name"
    )
    parser.add_argument("--seed", type=int, default=0, help="synthesis seed")
    parser.add_argument(
        "--no-homogeneity", action="store_true", help="skip the Section 6 audit"
    )
    parser.add_argument(
        "--no-selfsim", action="store_true", help="skip the Section 9 audit"
    )
    parser.add_argument(
        "--no-integrity", action="store_true", help="skip the Section 1 audit"
    )
    args = parser.parse_args(argv)

    workload = _load(args.source, args.jobs, args.seed)
    _print_statistics(workload)
    if not args.no_integrity:
        _print_integrity(workload)
    if not args.no_homogeneity:
        _print_homogeneity(workload, args.windows)
    if not args.no_selfsim:
        _print_selfsim(workload)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
