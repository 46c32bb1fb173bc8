"""Gram eigen-solves, the smallest-eigenvalue indicator and minimum-norm solvers.

Every eigen-solve or Cholesky factorization of a Gram matrix XX' in the
package runs here: `gram_eig` (eigenpairs and the singularity check) for exact
interpolation through the Gram inverse and for the shattering enumeration,
`gram_lambda_min` where the eigenvalue itself is wanted (shift-invert Lanczos
on one Cholesky factor, certified by a second, for large matrices), and
`gram_lambda_min_at_least` for the indicator lambda_min >= t, which two
shifted Cholesky factorizations decide outside a narrow band around t.
Every Cholesky factorization and triangular solve calls LAPACK's dpotrf and
dpotrs from scipy.linalg.cython_lapack as a C function through ctypes, which
releases the interpreter lock for the call, so the trial threads of
randmat.map_trials overlap them.  Minimum-norm points under linear
inequalities are a least-distance program reduced to one non-negative
least-squares solve.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.linalg import cython_lapack
from scipy.optimize import nnls
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

SINGULARITY_RATIO = 1e-10
FEAS_TOL = 1e-8
# NNLS residual norm below which a least-distance program is infeasible.
LDP_TOL = 1e-10
# Slack on ||w||^2 <= 1 when a min-norm solution must fit in the unit ball.
UNIT_BALL_TOL = 1e-8
# Half-width, relative to max(t, trace G), of the band around t in which
# lambda_min(G) >= t is left to eigvalsh: trace G bounds ||G||, and the
# rounding of a Cholesky factorization or of eigvalsh scales with ||G||.
TIE_TOL = 1e-9
# gram_lambda_min runs Lanczos from this many rows on; eigvalsh is as fast
# at about 200 rows (one BLAS thread).
LANCZOS_MIN = 256
# ARPACK residual tolerance, relative to the Ritz value: the Rayleigh quotient
# of the Ritz vector errs by about its square, below the rounding of eigvalsh.
LANCZOS_TOL = 1e-8


class SingularGramError(np.linalg.LinAlgError):
    """Gram matrix is singular or near-singular; carries the eigenvalue ratio."""

    def __init__(self, ratio: float):
        self.ratio = ratio
        super().__init__(
            f"Gram matrix singular or near-singular: smallest/largest eigenvalue "
            f"ratio {ratio:.3e} <= {SINGULARITY_RATIO:.0e}"
        )

    def __reduce__(self):  # rebuild from the ratio, not the message, when pickled or copied
        return type(self), (self.ratio,)


@dataclass
class QpSolution:
    w: np.ndarray | None
    objective: float
    active_set: list[int]
    status: str  # "optimal" | "infeasible"


def gram_eig(X: np.ndarray):
    """Ascending eigenpairs of XX'; raises SingularGramError(ratio) when the
    smallest/largest eigenvalue ratio is at most SINGULARITY_RATIO."""
    evals, evecs = np.linalg.eigh(X @ X.T)
    lam_max = float(evals[-1]) if evals.size else 0.0
    ratio = 0.0 if lam_max <= 0 else float(evals[0]) / lam_max
    if ratio <= SINGULARITY_RATIO:
        raise SingularGramError(ratio)
    return evals, evecs


def _eigvalsh_min(G: np.ndarray) -> float:
    """Smallest eigenvalue of symmetric G by a full eigvalsh."""
    return float(np.linalg.eigvalsh(G)[0])


def _shifted(G: np.ndarray, c: float, out: np.ndarray | None = None) -> np.ndarray:
    """G - c I in Fortran order, written into `out` (a new array when None)."""
    if out is None:
        out = np.empty(G.shape, order="F")
    out[...] = G
    out.flat[::G.shape[0] + 1] -= c
    return out


# The LP64 C signatures of the LAPACK routines called below, as scipy's Cython
# LAPACK API names them in its capsules; `_D` is a pointer to double.
_D = "__pyx_t_5scipy_6linalg_13cython_lapack_d *"
_SIGNATURES = {"dpotrf": f"void (char *, int *, {_D}, int *, int *)",
               "dpotrs": f"void (char *, int *, int *, {_D}, int *, {_D}, int *, int *)"}
_ARG_TYPES = {"char *": ctypes.c_char_p, "int *": ctypes.POINTER(ctypes.c_int),
              _D: ctypes.c_void_p}
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack_routine(name: str, signature: str):
    """LAPACK routine `name` from scipy.linalg.cython_lapack as a ctypes
    function, which releases the interpreter lock while it runs; ImportError
    unless scipy declares it with `signature`."""
    capsule = cython_lapack.__pyx_capi__[name]
    declared = _capsule_name(capsule).decode()
    if declared != signature:
        raise ImportError(f"scipy {scipy.__version__} declares LAPACK {name} as "
                          f"{declared!r}, not the LP64 {signature!r} optim calls")
    arg_types = [_ARG_TYPES[arg] for arg in signature[len("void ("):-1].split(", ")]
    return ctypes.CFUNCTYPE(None, *arg_types)(_capsule_pointer(capsule, declared.encode()))


_potrf = _lapack_routine("dpotrf", _SIGNATURES["dpotrf"])
_potrs = _lapack_routine("dpotrs", _SIGNATURES["dpotrs"])


def _lapack_columns(a: np.ndarray, rows: int | None = None) -> int:
    """Columns of `a` after checking that LAPACK may read and write it through
    its data pointer: a writeable Fortran-contiguous float64 array, square when
    `rows` is None, else a vector or matrix with `rows` rows."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.f_contiguous and a.flags.writeable
            and (a.ndim == 2 and a.shape[0] == a.shape[1] if rows is None
                 else a.ndim in (1, 2) and a.shape[0] == rows)):
        shape = "a square matrix" if rows is None else f"an array with {rows} rows"
        raise ValueError(f"LAPACK needs {shape} of writeable Fortran-contiguous "
                         f"float64, got {getattr(a, 'dtype', type(a).__name__)} "
                         f"of shape {getattr(a, 'shape', None)}")
    return 1 if a.ndim == 1 else a.shape[1]


def _dpotrf(a: np.ndarray) -> int:
    """LAPACK dpotrf in place: the lower triangle of `a` becomes its Cholesky
    factor (the strict upper triangle is left as it was).  Returns info: 0 on
    success, else the order of the leading minor that is not positive definite."""
    n = _lapack_columns(a)
    info = ctypes.c_int(0)
    _potrf(b"L", ctypes.c_int(n), a.ctypes.data, ctypes.c_int(max(1, n)), info)
    return info.value


def _dpotrs(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LAPACK dpotrs in place: `b` becomes A^{-1} b, for the lower Cholesky
    factor of A that _dpotrf made, and is returned."""
    n = _lapack_columns(factor)
    nrhs = _lapack_columns(b, rows=n)
    _potrs(b"L", ctypes.c_int(n), ctypes.c_int(nrhs), factor.ctypes.data,
           ctypes.c_int(max(1, n)), b.ctypes.data, ctypes.c_int(max(1, n)), ctypes.c_int(0))
    return b


def _positive_definite(A: np.ndarray) -> bool:
    """Whether LAPACK's Cholesky factorization of symmetric A succeeds; it
    overwrites A, which must be in Fortran order."""
    return _dpotrf(A) == 0


def gram_lambda_min(G: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric Gram matrix G (eigvalsh's value up to
    rounding).

    From LANCZOS_MIN rows on, G is factored by Cholesky and ARPACK's Lanczos
    finds the largest eigenvalue of G^{-1} from a fixed start vector, one
    triangular solve pair per step.  The Rayleigh quotient rho = v'Gv / v'v of
    its Ritz vector v is returned if a Cholesky factorization of
    G - (rho - band) I, band = TIE_TOL * max(rho, trace G), succeeds and
    rho > band.  (rho - band, rho] then brackets lambda_min: no Rayleigh
    quotient lies below lambda_min, and the factorization exists only if every
    eigenvalue exceeds rho - band (both up to rounding that scales with
    ||G|| <= trace G, far below the band).  So a Ritz pair that is not the
    extremal one cannot pass.  Small G, a G not certified positive definite
    (singular, such as m > d points, or indefinite), an ARPACK failure and a
    failed certificate go to eigvalsh.  Besides G the Lanczos path holds one
    m x m array, the factor, whose buffer the certificate reuses.
    """
    m = G.shape[0]
    if m < LANCZOS_MIN:
        return _eigvalsh_min(G)
    # G.T is G in Fortran order, so the factor is a copy without transposing
    factor = np.array(G.T, dtype=float, order="F")
    if not _positive_definite(factor):
        return _eigvalsh_min(G)
    inverse = LinearOperator((m, m), dtype=float,
                             matvec=lambda v: _dpotrs(factor, np.array(v, dtype=float)))
    try:
        _, vecs = eigsh(inverse, k=1, which="LA", tol=LANCZOS_TOL,
                        v0=np.random.default_rng(0).uniform(-1.0, 1.0, m))
    except ArpackError:
        return _eigvalsh_min(G)
    v = vecs[:, 0]
    rho = float(v @ (G @ v)) / float(v @ v)
    band = TIE_TOL * max(rho, float(np.trace(G)))
    if rho > band and _positive_definite(_shifted(G.T, rho - band, out=factor)):
        return rho
    return _eigvalsh_min(G)


def gram_lambda_min_at_least(G: np.ndarray, t: float) -> bool:
    """The verdict of eigvalsh(G)[0] >= t for a finite Gram matrix G.

    Cholesky factorizations of G - (t -+ band) I decide it when lambda_min(G)
    lies outside [t - band, t + band], band = TIE_TOL * max(t, trace G); only
    inside the band, where the two could disagree by rounding (exact ties
    such as Hadamard rows), eigvalsh decides.
    """
    band = TIE_TOL * max(t, float(np.trace(G)))
    # band is 0 only for G = 0 and t = 0, a tie eigvalsh must decide
    if band > 0 and not _positive_definite(_shifted(G, t - band)):
        return False
    if _positive_definite(_shifted(G, t + band)):
        return True
    return _eigvalsh_min(G) >= t


def min_norm_interpolator(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-norm w with Xw = y, i.e. w = X' (XX')^{-1} y.

    Requires m <= d and a well-conditioned Gram matrix; raises
    SingularGramError otherwise.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    evals, evecs = gram_eig(X)
    ginv_y = evecs @ ((evecs.T @ y) / evals)
    return X.T @ ginv_y


def solve_min_norm_ineq(A: np.ndarray, b: np.ndarray) -> QpSolution:
    """Minimize ||w||^2 subject to A w >= b row by row, a least-distance program.

    Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23): with
    E = [A'; b'] and f = e_{d+1}, solve u = argmin_{u >= 0} ||E u - f|| and set
    r = E u - f.  The system is feasible iff r != 0; then w = -r[:d] / r[d],
    r[d] = -||r||^2 and ||r||^2 = 1 / (1 + ||w||^2).  A residual norm below
    LDP_TOL is read as infeasible, so a system whose min-norm solution is
    longer than about 1 / LDP_TOL is reported infeasible too.  Each u_i is
    the multiplier of constraint i up to the positive factor 2 / ||r||^2, so
    by complementary slackness every constraint in the support {i : u_i > 0}
    holds with equality: the support is the active set, and w is polished by
    a min-norm least-squares solve on it.  A w that misses a constraint by
    more than FEAS_TOL (relative to max(1, |b_i|)) is reported infeasible.
    An infeasible result has w None, objective inf and an empty active set.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n, d = A.shape
    if b.shape != (n,):
        raise ValueError(f"{n} constraint rows but bounds of shape {b.shape}")
    if n == 0:  # nnls fails on a matrix with no columns
        return QpSolution(w=np.zeros(d), objective=0.0, active_set=[], status="optimal")

    u, rnorm = nnls(np.vstack([A.T, b]), np.append(np.zeros(d), 1.0))
    if rnorm >= LDP_TOL:
        support = [int(i) for i in np.flatnonzero(u > 0)]
        w = np.linalg.lstsq(A[support], b[support], rcond=None)[0]
        if np.all(A @ w >= b - FEAS_TOL * np.maximum(1.0, np.abs(b))):
            return QpSolution(w=w, objective=float(w @ w), active_set=support,
                              status="optimal")
    return QpSolution(w=None, objective=float("inf"), active_set=[], status="infeasible")
