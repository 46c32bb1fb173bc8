"""Exact fat-shattering certification of finite point sets.

A set of m points (rows of X) is shattered at the origin with margin gamma iff
the Gram matrix of X/gamma is invertible and the quadratic form
y' (XX'/gamma^2)^{-1} y stays <= 1 over all sign vectors y.  Enumeration over
the 2^(m-1) sign classes gives an exact verdict; the smallest Gram eigenvalue
gives a cheap one-sided sufficient condition.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .checks import check_int, check_positive, finite_points
from .optim import (
    UNIT_BALL_TOL,
    ConstraintSystem,
    SingularGramError,
    gram_eig,
    gram_lambda_min_at_least,
    solve_min_norm_ineq,
)

DEFAULT_CAP = 20
SUBSET_BUDGET = 10_000_000
WORST_VALUE_SLACK = 1e-9
FLOOR_SLACK = 1e-9  # so a bound that is an integer up to rounding floors to it
_CHUNK = 1 << 16


class EnumerationCapError(ValueError):
    """Point count exceeds the exact-enumeration cap."""


class SubsetBudgetError(ValueError):
    """Combinatorial subset budget exceeded; retry with a smaller max_subset."""


@dataclass
class ShatterCertificate:
    shattered: bool
    gamma: float
    worst_labeling: np.ndarray | None
    worst_value: float
    gram_condition: float

    def to_dict(self) -> dict:
        return {
            "shattered": self.shattered,
            "gamma": self.gamma,
            "worst_labeling": None if self.worst_labeling is None
            else [int(v) for v in self.worst_labeling],
            "worst_value": self.worst_value,
            "gram_condition": self.gram_condition,
        }


@dataclass(frozen=True)
class FatShatteringEstimate:
    lower: int
    upper: int
    witness_subset: tuple
    gamma: float


def _sign_block(m: int, start: int, count: int) -> np.ndarray:
    """Rows `start..start+count` of the {+-1}^m enumeration with y[0] = +1."""
    idx = np.arange(start, start + count, dtype=np.uint64)[:, None]
    bits = (idx >> np.arange(m - 1, dtype=np.uint64)[None, ::-1]) & 1
    y = np.empty((count, m))
    y[:, 0] = 1.0
    y[:, 1:] = 1.0 - 2.0 * bits
    return y


def shatter_at_origin(X: np.ndarray, gamma: float) -> ShatterCertificate:
    """Exact origin-shattering verdict at margin gamma by labeling enumeration.

    Since y and -y give the same quadratic form, only 2^(m-1) labelings are
    evaluated.  Gram singularity (including m > d) yields a not-shattered
    verdict with the offending eigenvalue ratio in `gram_condition`.  At most
    DEFAULT_CAP points are enumerated.
    """
    X = finite_points(X)
    check_positive("gamma", gamma)
    m, d = X.shape
    if m > DEFAULT_CAP:
        raise EnumerationCapError(f"m={m} exceeds enumeration cap {DEFAULT_CAP}")
    try:
        evals, evecs = gram_eig(X / gamma)
        ratio = float(evals[0]) / float(evals[-1])
    except SingularGramError as e:
        evals, ratio = None, e.ratio
    if evals is None or m > d:
        return ShatterCertificate(shattered=False, gamma=float(gamma),
                                  worst_labeling=None, worst_value=math.inf,
                                  gram_condition=ratio)
    total = 1 << (m - 1)
    worst = -math.inf
    worst_y = None
    for start in range(0, total, _CHUNK):
        count = min(_CHUNK, total - start)
        y = _sign_block(m, start, count)
        c = y @ evecs
        vals = np.sum(c * c / evals, axis=1)
        i = int(np.argmax(vals))
        if vals[i] > worst:
            worst = float(vals[i])
            worst_y = y[i].copy()
    return ShatterCertificate(shattered=worst <= 1.0 + WORST_VALUE_SLACK,
                              gamma=float(gamma), worst_labeling=worst_y,
                              worst_value=worst, gram_condition=ratio)


def lambda_min_sufficient(X: np.ndarray, gamma: float) -> bool:
    """Sufficient condition: smallest Gram eigenvalue >= m * gamma^2.

    One-directional: True implies origin-shattering at margin gamma; False is
    inconclusive.
    """
    X = finite_points(X)
    check_positive("gamma", gamma)
    return gram_lambda_min_at_least(X @ X.T, X.shape[0] * gamma * gamma)


def shatter_with_offsets(X: np.ndarray, r: np.ndarray, gamma: float) -> bool:
    """Shattering with caller-supplied offsets r, decided labeling by labeling.

    Each labeling y requires some w with ||w|| <= 1 and
    y_i(<x_i, w> - r_i) >= gamma, i.e. the min-norm point under the
    constraints (y_i x_i) . w >= gamma + y_i r_i must have norm <= 1.  r holds
    one finite offset per point.  At most DEFAULT_CAP points are enumerated.
    """
    X = finite_points(X)
    check_positive("gamma", gamma)
    r = finite_points(r, 1, "offsets r")
    m = X.shape[0]
    if r.shape != (m,):
        raise ValueError(f"offsets r must have shape ({m},), got {r.shape}")
    if m > DEFAULT_CAP:
        raise EnumerationCapError(f"m={m} exceeds enumeration cap {DEFAULT_CAP}")
    for mask in range(1 << m):
        y = 1.0 - 2.0 * ((mask >> np.arange(m)) & 1)
        cs = ConstraintSystem(y[:, None] * X, gamma + y * r)
        sol = solve_min_norm_ineq(cs)
        if sol.status != "optimal" or sol.objective > 1.0 + UNIT_BALL_TOL:
            return False
    return True


def fat_shattering_upper_bound(points: np.ndarray, gamma: float) -> int:
    """floor of min over k of (3/2)(b_k / gamma^2 + k + 1), b_k the b of
    spectral.set_limit_certificate(points, k), all read from one thin SVD."""
    points = finite_points(points)
    check_positive("gamma", gamma)
    u, s, _ = np.linalg.svd(points, full_matrices=False)
    # squared norms off the top-k singular subspace; b_k = 0 from k = len(s)
    # on, where larger k only raise the bound
    tails = np.cumsum(((u * s) ** 2)[:, ::-1], axis=1)[:, ::-1]
    b = np.append(tails.max(axis=0), 0.0)
    bound = 1.5 * (b / (gamma * gamma) + np.arange(b.size) + 1)
    return int(math.floor(float(bound.min()) + FLOOR_SLACK))


def fat_shattering_search(points: np.ndarray, gamma: float,
                          max_subset: int) -> FatShatteringEstimate:
    """Bracket the fat-shattering dimension of a finite set.

    Lower bound: size of the largest subset certified origin-shattered by
    exhaustive subset enumeration (largest sizes first).  Upper bound: the
    projection-limit formula.  lower <= upper is guaranteed by the theory; a
    violation is a library defect.
    """
    points = finite_points(points)
    check_positive("gamma", gamma)
    check_int("max_subset", max_subset)
    if max_subset > DEFAULT_CAP:
        raise EnumerationCapError(f"max_subset={max_subset} exceeds cap {DEFAULT_CAP}")
    m, d = points.shape
    smax = min(max_subset, m, d)
    n_subsets = sum(math.comb(m, s) for s in range(1, smax + 1))
    if n_subsets > SUBSET_BUDGET:
        raise SubsetBudgetError(
            f"{n_subsets} candidate subsets exceed budget {SUBSET_BUDGET}; "
            f"reduce max_subset")
    upper = fat_shattering_upper_bound(points, gamma)
    for s in range(smax, 0, -1):
        for subset in combinations(range(m), s):
            cert = shatter_at_origin(points[list(subset)], gamma)
            if cert.shattered:
                return FatShatteringEstimate(lower=s, upper=upper,
                                             witness_subset=subset, gamma=float(gamma))
    return FatShatteringEstimate(lower=0, upper=upper, witness_subset=(), gamma=float(gamma))


def read_points_csv(path) -> np.ndarray:
    """Read a point set from CSV: one point per row, numeric columns."""
    with open(path, newline="") as f:
        rows = [[float(v) for v in r] for r in csv.reader(f) if r]
    return finite_points(rows)


def write_points_csv(path, points: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for row in points:
            w.writerow([repr(float(v)) for v in row])
