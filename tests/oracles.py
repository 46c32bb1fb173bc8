"""Reference implementations the test modules check the package against."""

from itertools import chain, combinations

import numpy as np

from margin_spectra.optim import ConstraintSystem


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
