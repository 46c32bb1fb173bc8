"""Reference implementations the test modules check the package against."""

import math
from itertools import chain, combinations

import numpy as np

from margin_spectra.optim import ConstraintSystem
from margin_spectra.spectral import set_limit_certificate


def brute_force_min_norm(cs: ConstraintSystem):
    """Oracle: enumerate every active subset, solve the equality system, keep
    the feasible candidate of minimum norm; None when none is feasible."""
    A, b, n, d = cs.matrix, cs.bounds, cs.n, cs.d
    best = None
    for subset in chain.from_iterable(combinations(range(n), r) for r in range(n + 1)):
        idx = list(subset)
        if not idx:
            w = np.zeros(d)
        else:
            G = A[idx] @ A[idx].T
            if np.linalg.matrix_rank(G, tol=1e-10) < len(idx):
                continue
            w = A[idx].T @ np.linalg.solve(G, b[idx])
        if np.all(A @ w >= b - 1e-8 * np.maximum(1.0, np.abs(b))):
            if best is None or w @ w < best @ best:
                best = w
    return best


def projection_limit_bound(points: np.ndarray, gamma: float) -> int:
    """Oracle: floor of min over k of 1.5 (b_k / gamma^2 + k + 1), with one
    set_limit_certificate (one full SVD) per k = 0..d."""
    g2 = gamma * gamma
    best = math.inf
    for k in range(points.shape[1] + 1):
        best = min(best, 1.5 * (set_limit_certificate(points, k).b / g2 + k + 1))
    return int(math.floor(best + 1e-9))
