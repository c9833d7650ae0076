"""Variable selection procedures.

Two procedures from the paper:

* :func:`eliminate_variables` — Section 4's iterative rule: "variables that
  do not fit into the graphical display, namely, have low correlations,
  should be removed", re-running the analysis until all remaining variables
  fit.  Because arrows have individual goodness-of-fit values there is no
  need to try all 2^p subsets.
* :func:`best_subset` — Section 8's parameterization search: pick a small
  set of representative variables (one per cluster) that conserves the map
  with the highest correlations; the paper's winner is {AL, Pm, Im} at
  Θ=0.02, average correlation 0.94.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.coplot.model import Coplot, CoplotResult
from repro.util.validation import check_2d

__all__ = ["eliminate_variables", "best_subset", "SubsetScore"]


def eliminate_variables(
    y,
    *,
    labels: Optional[Sequence[str]] = None,
    signs: Optional[Sequence[str]] = None,
    min_correlation: float = 0.7,
    min_variables: int = 2,
    coplot: Optional[Coplot] = None,
    drop_per_round: int = 1,
) -> Tuple[CoplotResult, List[str], CoplotResult]:
    """Iteratively drop the worst-fitting variables.

    Each round runs Co-plot and removes the lowest-correlation variable
    while any falls below *min_correlation* (at most *drop_per_round* per
    round, worst first — removing one variable changes every other arrow,
    so greedy one-at-a-time is the faithful procedure).

    Returns
    -------
    (result, removed, first):
        The final :class:`~repro.coplot.model.CoplotResult`, the list of
        removed variable signs in removal order, and the first round's
        fit of every variable (*result* itself when nothing was removed).
    """
    mat = check_2d(y, "y")
    p = mat.shape[1]
    if signs is None:
        signs = [f"v{j}" for j in range(p)]
    signs = list(signs)
    if min_variables < 2:
        raise ValueError(f"min_variables must be >= 2, got {min_variables}")
    if drop_per_round < 1:
        raise ValueError(f"drop_per_round must be >= 1, got {drop_per_round}")
    cp = coplot if coplot is not None else Coplot()

    keep = list(range(p))
    removed: List[str] = []
    first = None
    while True:
        result = cp.fit(mat[:, keep], labels=labels, signs=[signs[j] for j in keep])
        if first is None:
            first = result
        corr = result.correlations
        worst_order = np.argsort(corr)
        to_drop = [
            int(j)
            for j in worst_order[:drop_per_round]
            if corr[j] < min_correlation
        ]
        if not to_drop or len(keep) - len(to_drop) < min_variables:
            return result, removed, first
        for j in sorted(to_drop, reverse=True):
            removed.append(signs[keep[j]])
            del keep[j]


@dataclass(frozen=True)
class SubsetScore:
    """One candidate subset from :func:`best_subset`."""

    signs: Tuple[str, ...]
    alienation: float
    average_correlation: float
    min_correlation: float
    result: CoplotResult

    def dominates(self, other: "SubsetScore") -> bool:
        """Strictly better on both criteria."""
        return (
            self.alienation <= other.alienation
            and self.average_correlation >= other.average_correlation
            and (
                self.alienation < other.alienation
                or self.average_correlation > other.average_correlation
            )
        )


def best_subset(
    y,
    k: int,
    *,
    labels: Optional[Sequence[str]] = None,
    signs: Optional[Sequence[str]] = None,
    candidates: Optional[Sequence[str]] = None,
    max_alienation: float = 0.15,
    coplot: Optional[Coplot] = None,
    top: int = 5,
) -> List[SubsetScore]:
    """Exhaustively score all k-variable subsets, Section 8 style.

    Subsets are ranked by average arrow correlation among those whose
    alienation stays within *max_alienation*; if none qualifies, the
    lowest-alienation subsets are returned instead.  Every subset is
    fitted in one :meth:`~repro.coplot.model.Coplot.fit_many` batch.

    Parameters
    ----------
    y, labels, signs:
        The full observation matrix and its names.
    k:
        Subset size (the paper uses 3).
    candidates:
        Optional restriction of which variables may enter a subset (e.g.
        one or two representatives per known cluster); each sign at most
        once.
    top:
        How many best subsets to return, best first.
    """
    mat = check_2d(y, "y")
    p = mat.shape[1]
    if signs is None:
        signs = [f"v{j}" for j in range(p)]
    signs = list(signs)
    if not 1 <= k <= p:
        raise ValueError(f"k must be in 1..{p}, got {k}")
    if candidates is None:
        pool = list(range(p))
    else:
        index = {s: j for j, s in enumerate(signs)}
        missing = [c for c in candidates if c not in index]
        if missing:
            raise ValueError(f"unknown candidate signs: {missing}")
        repeated = sorted(c for c, count in Counter(candidates).items() if count > 1)
        if repeated:
            raise ValueError(f"duplicate candidate signs: {repeated}")
        pool = [index[c] for c in candidates]
    if len(pool) < k:
        raise ValueError(f"only {len(pool)} candidate variables for k={k}")
    cp = coplot if coplot is not None else Coplot()

    combos = [list(combo) for combo in itertools.combinations(pool, k)]
    results = cp.fit_many(
        [mat[:, cols] for cols in combos],
        labels=labels,
        signs=[[signs[j] for j in cols] for cols in combos],
    )
    scored = [
        SubsetScore(
            signs=tuple(signs[j] for j in cols),
            alienation=result.alienation,
            average_correlation=result.average_correlation,
            min_correlation=result.min_correlation,
            result=result,
        )
        for cols, result in zip(combos, results)
    ]
    within = [s for s in scored if s.alienation <= max_alienation]
    if within:
        within.sort(key=lambda s: (-s.average_correlation, s.alienation))
        return within[:top]
    scored.sort(key=lambda s: (s.alienation, -s.average_correlation))
    return scored[:top]
