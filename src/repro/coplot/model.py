"""The Co-plot pipeline: normalization → dissimilarity → MDS → arrows.

:class:`Coplot` is the user-facing entry point; :class:`CoplotResult` holds
everything an analysis reads off the map — coordinates, arrows, goodness of
fit, variable clusters, per-observation characterizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coplot.arrows import Arrow, angle_between, fit_arrows
from repro.coplot.dissimilarity import pairwise_dissimilarity
from repro.coplot.mds import MDSResult
from repro.coplot.mds.base import check_dissimilarity
from repro.coplot.mds.smacof import _solve_many, smacof
from repro.coplot.normalize import normalize_matrix
from repro.util.rng import SeedLike
from repro.util.validation import check_2d

__all__ = ["Coplot", "CoplotResult"]


@dataclass(frozen=True)
class CoplotResult:
    """Everything produced by one Co-plot analysis.

    Attributes
    ----------
    labels:
        Observation names, in row order.
    signs:
        Variable names, in column order.
    y:
        The raw observation matrix.
    z:
        The normalized matrix (Eq. 1).
    dissimilarity:
        The pairwise city-block matrix (Eq. 2).
    mds:
        The MDS outcome — ``mds.coords`` is the 2-D map, ``mds.alienation``
        the paper's Θ.
    arrows:
        One :class:`~repro.coplot.arrows.Arrow` per variable.
    """

    labels: List[str]
    signs: List[str]
    y: np.ndarray
    z: np.ndarray
    dissimilarity: np.ndarray
    mds: MDSResult
    arrows: List[Arrow]

    # -- headline goodness-of-fit numbers --------------------------------
    @property
    def coords(self) -> np.ndarray:
        """The n x 2 observation map."""
        return self.mds.coords

    @property
    def alienation(self) -> float:
        """Coefficient of alienation Θ; below 0.15 is good."""
        return self.mds.alienation

    @property
    def correlations(self) -> np.ndarray:
        """Per-variable maximal correlations (stage 4 goodness of fit)."""
        return np.array([a.correlation for a in self.arrows])

    @property
    def average_correlation(self) -> float:
        """Mean of the per-variable correlations (the paper's summary)."""
        return float(self.correlations.mean()) if self.arrows else math.nan

    @property
    def min_correlation(self) -> float:
        """Worst per-variable correlation."""
        return float(self.correlations.min()) if self.arrows else math.nan

    # -- lookups ------------------------------------------------------------
    def index_of(self, label: str) -> int:
        """Row index of an observation by name."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no observation labelled {label!r}") from None

    def arrow(self, sign: str) -> Arrow:
        """The arrow of a variable by sign."""
        for a in self.arrows:
            if a.sign == sign:
                return a
        raise KeyError(f"no variable with sign {sign!r}")

    def position(self, label: str) -> np.ndarray:
        """Map coordinates of one observation."""
        return self.coords[self.index_of(label)]

    def distance(self, label_a: str, label_b: str) -> float:
        """Map distance between two observations."""
        return float(
            np.linalg.norm(self.position(label_a) - self.position(label_b))
        )

    def distances_from(self, label: str) -> Dict[str, float]:
        """Map distances from one observation to all others, sorted."""
        origin = self.position(label)
        dists = {
            other: float(np.linalg.norm(self.coords[i] - origin))
            for i, other in enumerate(self.labels)
            if other != label
        }
        return dict(sorted(dists.items(), key=lambda kv: kv[1]))

    def centroid(self) -> np.ndarray:
        """Centre of gravity of the observation points (arrow origin)."""
        return self.coords.mean(axis=0)

    # -- interpretation helpers ------------------------------------------
    def variable_clusters(self, *, max_angle: float = 30.0) -> List[List[str]]:
        """Group variables whose arrows point 'in about the same direction'.

        Two arrows are linked when their angle is at most *max_angle*
        degrees; clusters are the connected components of that link graph
        (single linkage), ordered clockwise by mean direction starting from
        the first cluster.  This mirrors the paper's reading of Figures 1-5.
        """
        n = len(self.arrows)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                ang = angle_between(self.arrows[i], self.arrows[j])
                if not math.isnan(ang) and ang <= max_angle:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
        groups: Dict[int, List[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)

        def mean_angle(idxs: List[int]) -> float:
            vec = np.sum([self.arrows[i].direction for i in idxs], axis=0)
            return math.atan2(vec[1], vec[0]) % (2 * math.pi)

        ordered = sorted(groups.values(), key=mean_angle, reverse=True)
        return [[self.arrows[i].sign for i in idxs] for idxs in ordered]

    def characterization(self, label: str) -> Dict[str, float]:
        """Signed projection of one observation onto every arrow.

        Positive means the observation is above average in that variable,
        negative below — the deduction rule of Section 5 ("the projection of
        a point on a variable's arrow should be proportional to its distance
        from the variable's average").
        """
        rel = self.position(label) - self.centroid()
        return {a.sign: float(rel @ a.direction) for a in self.arrows}

    def outliers(self, *, factor: float = 2.0) -> List[str]:
        """Observations farther from the centroid than *factor* times the
        mean centroid distance — the paper's informal outlier reading."""
        rel = self.coords - self.centroid()
        dist = np.linalg.norm(rel, axis=1)
        mean = dist.mean()
        if mean == 0:
            return []
        return [lbl for lbl, d in zip(self.labels, dist) if d > factor * mean]

    def summary(self) -> str:
        """One-paragraph textual summary of the fit."""
        return (
            f"Co-plot of {len(self.labels)} observations x {len(self.signs)} variables: "
            f"alienation={self.alienation:.3f}, "
            f"avg correlation={self.average_correlation:.3f}, "
            f"min correlation={self.min_correlation:.3f}"
        )


class Coplot:
    """Configured Co-plot analysis.

    Parameters
    ----------
    metric:
        Dissimilarity metric for stage 2 (default the paper's city-block).
    dim:
        Map dimensionality (default 2, as in every figure of the paper).
    transform:
        MDS order transform: ``"rank-image"`` (Guttman/SSA, default),
        ``"isotonic"`` (Kruskal) or ``"metric"``.
    n_init, max_iter, tol:
        MDS restart/iteration controls.
    seed:
        Seed for the MDS random restarts (fixed default: deterministic maps).
    ddof:
        Degrees of freedom for the normalization's standard deviation.
    """

    def __init__(
        self,
        *,
        metric: str = "cityblock",
        dim: int = 2,
        transform: str = "rank-image",
        n_init: int = 8,
        max_iter: int = 500,
        tol: float = 1e-10,
        seed: SeedLike = 0,
        ddof: int = 0,
    ):
        self.metric = metric
        self.dim = dim
        self.transform = transform
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.ddof = ddof

    def fit(
        self,
        y,
        *,
        labels: Optional[Sequence[str]] = None,
        signs: Optional[Sequence[str]] = None,
    ) -> CoplotResult:
        """Run the full four-stage analysis on observation matrix *y*.

        Parameters
        ----------
        y:
            n observations x p variables; NaN marks missing cells.
        labels:
            Observation names (default ``obs0..``).
        signs:
            Variable names (default ``v0..``).
        """
        mat, labels, signs = _check_problem(y, labels, signs)
        z, s = self._dissimilarity(mat)
        mds = smacof(
            s,
            dim=self.dim,
            transform=self.transform,
            n_init=self.n_init,
            max_iter=self.max_iter,
            tol=self.tol,
            seed=self.seed,
        )
        return self._result(mat, labels, signs, z, s, mds)

    def fit_many(
        self,
        ys: Sequence,
        *,
        labels: Optional[Sequence[str]] = None,
        signs: Optional[Sequence[Optional[Sequence[str]]]] = None,
    ) -> List[CoplotResult]:
        """Fit a stack of problems over the same observations at once.

        Entry i of the result is exactly ``self.fit(ys[i], labels=labels,
        signs=signs[i])``, but every problem's MDS restarts run as rows of
        one lockstep SMACOF batch — the subset search and the variable
        bootstraps fit dozens of 10-point maps, where per-call overhead
        dominates.  Arrows are still fitted per problem.

        Parameters
        ----------
        ys:
            The problems: each n x p_i (the variable count may differ,
            the observations may not).
        labels:
            Observation names shared by every problem.
        signs:
            One sign list (or ``None`` for ``v0..``) per problem.

        Every problem is validated before any is fitted.
        """
        ys = list(ys)
        sign_lists = [None] * len(ys) if signs is None else list(signs)
        if len(sign_lists) != len(ys):
            raise ValueError(f"{len(sign_lists)} sign lists for {len(ys)} problems")
        problems = [_check_problem(y, labels, s) for y, s in zip(ys, sign_lists)]
        sizes = sorted({mat.shape[0] for mat, _, _ in problems})
        if len(sizes) > 1:
            raise ValueError(f"problems must share their observations, got n in {sizes}")
        stages = [self._dissimilarity(mat) for mat, _, _ in problems]
        maps = self._maps([s for _, s in stages])
        return [
            self._result(mat, lbls, sgns, z, s, mds)
            for (mat, lbls, sgns), (z, s), mds in zip(problems, stages, maps)
        ]

    def _dissimilarity(self, mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Stages 1 and 2: the normalized matrix and its dissimilarities."""
        z = normalize_matrix(mat, ddof=self.ddof)
        return z, pairwise_dissimilarity(z, metric=self.metric)

    def _maps(self, dissimilarities: Sequence[np.ndarray]) -> List[MDSResult]:
        """Stage 3 for same-size problems: each one's best-restart map,
        from one lockstep SMACOF batch (what :func:`smacof` returns for it)."""
        return _solve_many(
            [check_dissimilarity(s) for s in dissimilarities],
            self.dim,
            transform=self.transform,
            n_init=self.n_init,
            max_iter=self.max_iter,
            tol=self.tol,
            seed=self.seed,
        )

    @staticmethod
    def _result(
        mat: np.ndarray,
        labels: List[str],
        signs: List[str],
        z: np.ndarray,
        s: np.ndarray,
        mds: MDSResult,
    ) -> CoplotResult:
        """Stage 4 (arrows) and the assembled result."""
        return CoplotResult(
            labels=labels,
            signs=signs,
            y=mat.copy(),
            z=z,
            dissimilarity=s,
            mds=mds,
            arrows=fit_arrows(mds.coords, z, signs),
        )


def _check_problem(
    y, labels: Optional[Sequence[str]], signs: Optional[Sequence[str]]
) -> Tuple[np.ndarray, List[str], List[str]]:
    """Validate one observation matrix and its names; fill in defaults."""
    mat = check_2d(y, "y")
    n, p = mat.shape
    if n < 3:
        raise ValueError(f"Co-plot needs at least 3 observations, got {n}")
    if p < 1:
        raise ValueError("Co-plot needs at least 1 variable")
    if labels is None:
        labels = [f"obs{i}" for i in range(n)]
    labels = [str(l) for l in labels]
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} observations")
    if signs is None:
        signs = [f"v{j}" for j in range(p)]
    signs = [str(s) for s in signs]
    if len(signs) != p:
        raise ValueError(f"{len(signs)} signs for {p} variables")
    if len(set(labels)) != n:
        raise ValueError("observation labels must be unique")
    if len(set(signs)) != p:
        raise ValueError("variable signs must be unique")
    return mat, labels, signs
