"""Per-window and per-size Hurst loops, the oracles of
:func:`repro.selfsim.rs_analysis.rs_pox_points` and
:func:`repro.selfsim.variance_time.variance_time_points`.

Both walk the same size plans as the product (``_window_sizes``,
``_vt_sizes``) but evaluate one window or one block size at a time
through the validated public statistics.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.selfsim.aggregate import aggregate_series
from repro.selfsim.rs_analysis import _window_sizes, rs_statistic
from repro.selfsim.variance_time import _vt_sizes
from repro.util.validation import check_1d

__all__ = ["rs_pox_points_reference", "variance_time_points_reference"]


def rs_pox_points_reference(
    x,
    *,
    min_window: int = 8,
    n_sizes: int = 20,
    max_starts: int = 16,
) -> Tuple[np.ndarray, np.ndarray]:
    """The original per-window R/S loop."""
    arr = check_1d(x, "x", min_len=2 * min_window)
    n = arr.shape[0]
    log_ns: List[float] = []
    log_rs: List[float] = []
    for size in _window_sizes(n, min_window, n_sizes):
        n_windows = min(n // size, max_starts)
        starts = np.linspace(0, n - size, n_windows).astype(int)
        for start in starts:
            value = rs_statistic(arr[start : start + size])
            if np.isfinite(value) and value > 0:
                log_ns.append(np.log(size))
                log_rs.append(np.log(value))
    return np.asarray(log_ns), np.asarray(log_rs)


def variance_time_points_reference(
    x,
    *,
    min_blocks: int = 8,
    n_sizes: int = 20,
) -> Tuple[np.ndarray, np.ndarray]:
    """The original loop with per-size validated aggregation."""
    arr = check_1d(x, "x", min_len=2)
    log_m = []
    log_var = []
    for m in _vt_sizes(arr.shape[0], min_blocks, n_sizes):
        agg = aggregate_series(arr, int(m))
        v = float(agg.var())
        if v > 0:
            log_m.append(np.log(m))
            log_var.append(np.log(v))
    return np.asarray(log_m), np.asarray(log_var)
