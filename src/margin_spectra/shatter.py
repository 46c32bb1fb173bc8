"""Exact fat-shattering certification of finite point sets.

A set of m points (rows of X) is shattered at the origin with margin gamma iff
the Gram matrix of X/gamma is invertible and the quadratic form
y' (XX'/gamma^2)^{-1} y stays <= 1 over all sign vectors y.  Enumeration over
the 2^(m-1) sign classes gives an exact verdict; the smallest Gram eigenvalue
gives a cheap one-sided sufficient condition.  Above one enumeration chunk, a
split-sign screen scores every labeling with one small matrix product and only
the chunks that can hold the maximum are enumerated.
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
    SingularGramError,
    gram_eig,
    gram_lambda_min_at_least,
    solve_min_norm_ineq,
)
from .spectral import projection_tails

DEFAULT_CAP = 20
SUBSET_BUDGET = 10_000_000
WORST_VALUE_SLACK = 1e-9
FLOOR_SLACK = 1e-9  # so a bound that is an integer up to rounding floors to it
SCREEN_SLACK = 16.0
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


def _signs(k: int) -> np.ndarray:
    """All 2^k rows of k signs in enumeration order: bit j of the row index,
    most significant first, sets sign j to -1."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)[None, :]) & 1
    return 1.0 - 2.0 * bits


def _sign_tables(m: int):
    """The two halves of the {+-1}^m enumeration with y[0] = +1.

    With h = (m-1)//2, y_p holds the 2^h rows of y[0..h] (+1, then the h most
    significant signs) and y_q the 2^(m-1-h) rows of the other signs;
    labeling p * len(y_q) + q is y_p[p] followed by y_q[q].
    """
    h = (m - 1) // 2
    return np.hstack([np.ones((1 << h, 1)), _signs(h)]), _signs(m - 1 - h)


def _sign_rows(y_p: np.ndarray, y_q: np.ndarray, start: int, count: int) -> np.ndarray:
    """Rows `start..start+count` of the enumeration, copied from its sign
    tables; start and count are multiples of len(y_q)."""
    nq, hp = y_q.shape[0], y_p.shape[1]
    y_p = y_p[start // nq:(start + count) // nq]
    y = np.empty((y_p.shape[0], nq, hp + y_q.shape[1]))
    y[:, :, :hp] = y_p[:, None, :]
    y[:, :, hp:] = y_q
    return y.reshape(count, -1)


def _screen(evals: np.ndarray, evecs: np.ndarray):
    """Split-sign screen of y'Ay, A = V diag(1/evals) V', over the enumeration.

    Coordinates split into P = {0..h}, h = (m-1)//2 (y_0 = +1 and the h most
    significant signs) and Q (the rest).  With Y_P, Y_Q the sign rows of each
    part and q_P, q_Q their quadratic forms in A_PP, A_QQ, the 2^h x 2^(m-1-h)
    matrix S = q_P[:, None] + q_Q[None, :] + (Y_P @ 2A_PQ) @ Y_Q' holds every
    value in row-major enumeration order.  Returns S flattened and the floor
    S.max() - SCREEN_SLACK m^3 eps / lambda_1, lambda_1 = evals[0], below
    which no labeling can be the first argmax of shatter_at_origin's block
    evaluation.

    Why the floor is sound: both evaluations approximate the same exact form
    f(y) = sum_k (y.v_k)^2 / lambda_k of the computed eigenpairs, where
    |y.v_k| <= sqrt(m), sum_k (y.v_k)^2 ~ m and |A_ij| <= 1/lambda_1.  The
    block formula sum(c*c/evals) errs by at most ~ (2 m^2.5 + m^2) eps /
    lambda_1 (m-term dot products, squares, an m-term sum).  The screen errs
    by at most ~ (m^3 + m^2.5) eps / lambda_1: forming A costs (m+2) eps
    sum_k |v_ik v_jk| / lambda_k per entry, m^3 eps / lambda_1 summed over
    i, j, and the m-term products over entries of size <= 1/lambda_1 add
    m^2.5 eps / lambda_1.  So each lies within 4 m^3 eps / lambda_1 of f for
    m >= 2 and |screen - block| <= 8 m^3 eps / lambda_1 = e.  The block
    evaluation's first argmax y* then has screen(y*) >= block(y*) - e >=
    block(y') - e >= screen(y') - 2e for every y', the screen's argmax
    included, so SCREEN_SLACK = 16 = 2 * 8 always keeps y*.
    """
    m = evals.size
    h = (m - 1) // 2
    A = (evecs / evals) @ evecs.T
    y_p, y_q = _sign_tables(m)
    P, Q = slice(0, h + 1), slice(h + 1, m)
    S = (y_p @ (2.0 * A[P, Q])) @ y_q.T
    S += np.einsum("ij,ij->i", y_p @ A[P, P], y_p)[:, None]
    S += np.einsum("ij,ij->i", y_q @ A[Q, Q], y_q)[None, :]
    S = S.ravel()
    return S, float(S.max()) - SCREEN_SLACK * m**3 * np.finfo(float).eps / float(evals[0])


def shatter_at_origin(X: np.ndarray, gamma: float) -> ShatterCertificate:
    """Exact origin-shattering verdict at margin gamma by labeling enumeration.

    Since y and -y give the same quadratic form, only 2^(m-1) labelings are
    evaluated, in _CHUNK blocks, and the first labeling of largest value is
    reported.  When there is more than one block (m >= 18), the _screen of
    every labeling picks the blocks that can hold that labeling and only those
    are evaluated, with the same per-block arithmetic, so the certificate is
    the one full enumeration gives, bit for bit.  Gram singularity (including
    m > d) yields a not-shattered verdict with the offending eigenvalue ratio
    in `gram_condition`.  At most DEFAULT_CAP points are enumerated.
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
    starts = [0]
    if total > _CHUNK:
        values, floor = _screen(evals, evecs)
        starts = _CHUNK * np.flatnonzero(values.reshape(-1, _CHUNK).max(axis=1) >= floor)
    y_p, y_q = _sign_tables(m)
    worst = -math.inf
    worst_y = None
    for start in starts:
        count = min(_CHUNK, total - start)
        y = _sign_rows(y_p, y_q, start, count)
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
        if solve_min_norm_ineq(y[:, None] * X, gamma + y * r).objective > 1.0 + UNIT_BALL_TOL:
            return False
    return True


def fat_shattering_upper_bound(points: np.ndarray, gamma: float) -> int:
    """floor of min over k of (3/2)(b_k / gamma^2 + k + 1), b_k the b of
    spectral.set_limit_certificate(points, k), all read from one projection_tails."""
    points = finite_points(points)
    check_positive("gamma", gamma)
    b = projection_tails(points)[0].max(axis=0)  # 0 at k = min(m, d); larger k raise the bound
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
