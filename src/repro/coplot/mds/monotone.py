"""Order-restoring transform for nonmetric MDS.

Each SMACOF iteration replaces the raw dissimilarities by *disparities*:
values as close as possible to the current map distances while respecting
the dissimilarity order.  Kruskal's isotonic transform is the
least-squares monotone fit, computed by pool-adjacent-violators (PAVA);
Guttman's rank-image (the one inside SSA) is a sort that SMACOF does
inline.

SMACOF calls the unchecked row-batched kernel (``_pava_rows``) because it
constructs valid inputs itself and runs it inside the per-iteration hot
loop.  The scalar stack-based PAVA loop the block-merge kernel replaced
is its equivalence oracle in ``tests/oracles/mds.py``.
"""

from __future__ import annotations

import numpy as np


def _pava_rows(y2d: np.ndarray) -> np.ndarray:
    """Unchecked unweighted PAVA applied independently to every row.

    One flat parallel block-merge over the whole ``(k, m)`` batch: block
    boundaries at row starts are never merged away, so rows stay
    independent and each row's result is that row's own PAVA fit — this
    is what lets SMACOF fit all restarts' disparities in lockstep without
    a per-restart Python loop.
    """
    k, m = y2d.shape
    flat = np.ascontiguousarray(y2d).ravel()
    total = flat.shape[0]
    starts = np.arange(total)
    interior = np.ones(total, dtype=bool)
    interior[::m] = False  # block starts a new row: never merged away
    values = flat
    counts = np.ones(total, dtype=np.int64)
    while True:
        viol = (values[:-1] > values[1:]) & interior[1:]
        if not viol.any():
            break
        keep = np.ones(starts.shape[0], dtype=bool)
        keep[1:][viol] = False
        starts = starts[keep]
        interior = interior[keep]
        counts = np.empty(starts.shape[0], dtype=np.int64)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = total - starts[-1]
        values = np.add.reduceat(flat, starts) / counts
    return np.repeat(values, counts).reshape(k, m)
