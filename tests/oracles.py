"""Reference implementations the test modules check the package against."""

import hashlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np
from scipy.linalg import lapack

from margin_spectra.checks import check_int, check_positive, finite_points
from margin_spectra.dist import (
    GAUSSIAN,
    GAUSSIAN_MIXTURE_SYMMETRIC,
    RADEMACHER,
    SEED_LIMIT,
    UNIFORM_SYMMETRIC,
    DistributionSpec,
    DistSpecError,
    LabeledSample,
    _sample_rows,
    sample,
)
from margin_spectra.learner import (
    HINGE_ITERS,
    HINGE_RESTARTS,
    LSTAR_CHUNK,
    LSTAR_STREAM,
    CurveEntry,
    LearningCurve,
    NotShatteredError,
    _below_margin,
    _run_learner,
    estimate_lstar,
)
from margin_spectra.optim import (
    FEAS_TOL,
    QpSolution,
    SingularGramError,
    gram_eig,
    min_norm_interpolator,
)
from margin_spectra.randmat import map_trials
from margin_spectra.shatter import (
    _CHUNK,
    DEFAULT_CAP,
    WORST_VALUE_SLACK,
    EnumerationCapError,
    ShatterCertificate,
    shatter_at_origin,
)
from margin_spectra.spectral import SpectrumValidationError


def brute_force_min_norm(A: np.ndarray, b: np.ndarray):
    """Oracle: enumerate every active subset, solve the equality system, keep
    the feasible candidate of minimum norm; None when none is feasible."""
    A, b = np.atleast_2d(np.asarray(A, dtype=float)), np.asarray(b, dtype=float)
    n, d = A.shape
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


@dataclass(frozen=True)
class KktReport:
    stationarity_residual: float
    feasibility_violation: float
    multiplier_sign_ok: bool


def kkt_check(sol: QpSolution, A: np.ndarray, b: np.ndarray) -> KktReport:
    """Recompute multipliers on the active set and report KKT residuals."""
    if sol.status != "optimal":
        raise ValueError(f"kkt_check requires an optimal solution, got status {sol.status!r}")
    A, b = np.atleast_2d(np.asarray(A, dtype=float)), np.asarray(b, dtype=float)
    w = sol.w
    if sol.active_set:
        A_act = A[sol.active_set]
        lam, *_ = np.linalg.lstsq(A_act.T, 2.0 * w, rcond=None)
        stationarity = float(np.linalg.norm(A_act.T @ lam - 2.0 * w))
        sign_ok = bool(np.min(lam) >= -FEAS_TOL)
    else:
        stationarity = float(np.linalg.norm(2.0 * w))
        sign_ok = True
    violation = float(max(0.0, np.max(b - A @ w))) if b.size else 0.0
    return KktReport(stationarity_residual=stationarity,
                     feasibility_violation=violation,
                     multiplier_sign_ok=sign_ok)


ComplementCertificate = namedtuple("ComplementCertificate", "b k subspace_basis")


def set_limit_certificate(points: np.ndarray, k: int) -> ComplementCertificate:
    """Oracle: the (b, k) certificate from one full SVD, with the (d-k) x d
    orthonormal basis of the certified complement subspace."""
    pts = finite_points(points)
    check_int("k", k, least=0, below=pts.shape[1] + 1, error=SpectrumValidationError)
    _, _, vt = np.linalg.svd(pts, full_matrices=True)
    basis = vt[k:]  # (d-k) x d, orthonormal rows
    if basis.shape[0] == 0:
        return ComplementCertificate(b=0.0, k=k, subspace_basis=basis)
    proj = pts @ basis.T
    b = float(np.max(np.sum(proj * proj, axis=1)))
    return ComplementCertificate(b=b, k=k, subspace_basis=basis)


def projection_limit_bound(points: np.ndarray, gamma: float) -> int:
    """Oracle: floor of min over k of 1.5 (b_k / gamma^2 + k + 1), with one
    set_limit_certificate (one full SVD) per k = 0..d."""
    g2 = gamma * gamma
    best = math.inf
    for k in range(points.shape[1] + 1):
        best = min(best, 1.5 * (set_limit_certificate(points, k).b / g2 + k + 1))
    return int(math.floor(best + 1e-9))


def _point_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    bg = np.random.Philox(key=[seed, stream], counter=[0, 0, 0, index])
    return np.random.Generator(bg)


def _draw_mixture(rng: np.random.Generator, v: float):
    """One unit-variance draw (s v + z) / sqrt(1 + v^2) and its component sign s."""
    s = float(2 * rng.integers(0, 2) - 1)
    z = rng.standard_normal()
    return (s * v + z) / math.sqrt(1.0 + v * v), s


def _sign(x: float) -> float:
    return 1.0 if x >= 0 else -1.0


def per_point_sample(spec: DistributionSpec, m: int, seed: int, stream: int = 0) -> LabeledSample:
    """Oracle: the sampler that builds one Philox generator per point, keyed
    (seed, stream) with counter [0, 0, 0, i]; `sample` must match it bit for bit."""
    if m < 1:
        raise DistSpecError(f"m must be positive, got {m}")
    for name, value in (("seed", seed), ("stream", stream)):
        if not isinstance(value, (int, np.integer)) or not 0 <= value < SEED_LIMIT:
            raise DistSpecError(f"{name} must be an integer in [0, 2**63), got {value!r}")
    d = spec.d
    scale = np.sqrt(spec.variances)
    kinds = [l.kind for l in spec.laws]
    gauss_idx = np.array([i for i, k in enumerate(kinds) if k == GAUSSIAN], dtype=int)
    rad_idx = np.array([i for i, k in enumerate(kinds) if k == RADEMACHER], dtype=int)
    uni_idx = np.array([i for i, k in enumerate(kinds) if k == UNIFORM_SYMMETRIC], dtype=int)
    mix_idx = [i for i, k in enumerate(kinds) if k == GAUSSIAN_MIXTURE_SYMMETRIC]
    points = np.empty((m, d))
    labels = np.empty(m)
    lm = spec.label_model
    for i in range(m):
        rng = _point_rng(seed, stream, i)
        x = np.empty(d)
        if gauss_idx.size:
            x[gauss_idx] = rng.standard_normal(gauss_idx.size)
        if rad_idx.size:
            x[rad_idx] = 2.0 * rng.integers(0, 2, rad_idx.size) - 1.0
        if uni_idx.size:
            a = math.sqrt(3.0)
            x[uni_idx] = rng.uniform(-a, a, uni_idx.size)
        component = None
        for j in mix_idx:
            val, s = _draw_mixture(rng, float(spec.laws[j].params["v"]))
            x[j] = val
            if component is None:
                component = s
        x = scale * x
        if spec.rotation is not None:
            x = spec.rotation @ x
        if lm.kind == "halfspace":
            labels[i] = _sign(float(lm.w @ x))
        elif lm.kind == "halfspace_with_flip":
            y = _sign(float(lm.w @ x))
            if rng.random() < lm.flip:
                y = -y
            labels[i] = y
        elif lm.kind == "coin":
            labels[i] = 1.0 if rng.random() < lm.p else -1.0
        else:  # mixture_component
            if component is None:
                raise DistSpecError("mixture_component label model needs a mixture coordinate")
            labels[i] = component
        points[i] = x
    return LabeledSample(points=points, labels=labels)


def full_draw_lstar(spec: DistributionSpec, gamma: float, seed: int,
                    draws: int = 100_000) -> float | None:
    """Oracle: estimate_lstar drawing every column of every point, in chunks
    of LSTAR_CHUNK points from stream LSTAR_STREAM."""
    lm = spec.label_model
    if lm.kind in ("halfspace", "halfspace_with_flip"):
        w = lm.w / np.linalg.norm(lm.w)
    elif lm.kind == "mixture_component":
        w = np.zeros(spec.d)
        w[[law.kind for law in spec.laws].index(GAUSSIAN_MIXTURE_SYMMETRIC)] = 1.0
        if spec.rotation is not None:
            w = spec.rotation @ w
    else:
        return None
    below = 0
    for start in range(0, draws, LSTAR_CHUNK):
        points, labels = _sample_rows(spec, start, min(start + LSTAR_CHUNK, draws),
                                      seed, LSTAR_STREAM)
        below += int(np.count_nonzero(_below_margin(labels * (points @ w), gamma)))
    return below / draws


def full_hinge_subgradient(S: LabeledSample, gamma: float, seed: int) -> np.ndarray:
    """Oracle: the hinge heuristic running every restart and iteration, with
    no stop once the best key is (0, 0).

    Projected subgradient descent on the hinge-at-gamma surrogate.

    Keeps the best iterate seen (by 0-1 margin loss, then hinge value) across
    all restarts, comparing both the raw and unit-normalized iterate.
    """
    X, y, m = S.points, S.labels, S.m
    rng = np.random.default_rng([seed, 0x6d61725f])
    row_scale = float(np.mean(np.linalg.norm(X, axis=1))) or 1.0
    best_w, best_key = np.zeros(X.shape[1]), (math.inf, math.inf)

    def consider(w):
        nonlocal best_w, best_key
        nrm = np.linalg.norm(w)
        for cand in (w, w / nrm) if nrm > 0 else (w,):
            margins = y * (X @ cand)
            key = (float(np.mean(_below_margin(margins, gamma))),
                   float(np.mean(np.maximum(0.0, gamma - margins))))
            if key < best_key:
                best_key, best_w = key, cand.copy()

    for r in range(HINGE_RESTARTS):
        if r == 0:
            w = np.zeros(X.shape[1])
        else:
            w = rng.standard_normal(X.shape[1])
            w /= np.linalg.norm(w)
        for t in range(1, HINGE_ITERS + 1):
            margins = y * (X @ w)
            viol = margins < gamma
            if not np.any(viol):
                break
            g = -(y[viol, None] * X[viol]).sum(axis=0) / m
            w = w - (max(gamma, row_scale) / (row_scale * row_scale * math.sqrt(t))) * g
            nrm = np.linalg.norm(w)
            if nrm > 1.0:
                w = w / nrm
            if t % 10 == 0:
                consider(w)
        consider(w)
    return best_w



def eigvalsh_sufficient(X: np.ndarray, gamma: float) -> bool:
    """Oracle: the eigenvalue test lambda_min(XX') >= m gamma^2 by a full eigvalsh."""
    return np.linalg.eigvalsh(X @ X.T)[0] >= X.shape[0] * gamma * gamma


def eigvalsh_threshold(points: np.ndarray, gamma: float) -> int:
    """Oracle: smallest failing prefix size of `points` by bisection on the
    eigenvalue test of each prefix, m_max + 1 when no prefix fails."""
    m_max = points.shape[0]
    if eigvalsh_sufficient(points, gamma):
        return m_max + 1
    lo, hi = 0, m_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eigvalsh_sufficient(points[:mid], gamma):
            lo = mid
        else:
            hi = mid
    return hi


def f2py_cholesky(G: np.ndarray):
    """Oracle: scipy's f2py LAPACK dpotrf of the lower triangle of G, which
    holds the interpreter lock; (factor with its strict upper triangle as in G,
    info)."""
    return lapack.dpotrf(G, lower=True, clean=False)


def f2py_cholesky_in_place(a: np.ndarray) -> int:
    """Oracle: f2py_cholesky of a Fortran-order `a`, written over `a`; info."""
    return lapack.dpotrf(a, lower=True, clean=False, overwrite_a=True)[1]


def f2py_cholesky_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Oracle: scipy's f2py LAPACK dpotrs, A^{-1} b from the lower Cholesky
    factor of A."""
    return lapack.dpotrs(factor, b, lower=True)[0]


def hadamard(n: int) -> np.ndarray:
    """Sylvester's Hadamard matrix of order n, a power of 2: +-1 entries and
    H H' = n I."""
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def sign_block(m: int, start: int, count: int) -> np.ndarray:
    """Oracle: rows `start..start+count` of the {+-1}^m enumeration with
    y[0] = +1, from the bits of each row index (most significant first)."""
    idx = np.arange(start, start + count, dtype=np.uint64)[:, None]
    bits = (idx >> np.arange(m - 1, dtype=np.uint64)[None, ::-1]) & 1
    y = np.empty((count, m))
    y[:, 0] = 1.0
    y[:, 1:] = 1.0 - 2.0 * bits
    return y


def enumerating_shatter_certificate(X: np.ndarray, gamma: float) -> ShatterCertificate:
    """Oracle: shatter_at_origin by evaluating every _CHUNK block of the
    2^(m-1) labelings, with no screen; the first labeling of largest value wins."""
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
        y = sign_block(m, start, count)
        c = y @ evecs
        vals = np.sum(c * c / evals, axis=1)
        i = int(np.argmax(vals))
        if vals[i] > worst:
            worst = float(vals[i])
            worst_y = y[i].copy()
    return ShatterCertificate(shattered=worst <= 1.0 + WORST_VALUE_SLACK,
                              gamma=float(gamma), worst_labeling=worst_y,
                              worst_value=worst, gram_condition=ratio)


def enumerating_adversarial_minimizer(S_train: LabeledSample, test_points: np.ndarray,
                                      test_labels: np.ndarray, gamma: float) -> np.ndarray:
    """Oracle: the adversarial separator after the full labeling enumeration of
    shatter_at_origin, with no eigenvalue test first."""
    test_points = np.atleast_2d(np.asarray(test_points, dtype=float))
    test_labels = np.atleast_1d(np.asarray(test_labels, dtype=float))
    combined = np.vstack([S_train.points, test_points])
    cert = shatter_at_origin(combined, gamma)
    if not cert.shattered:
        raise NotShatteredError(
            f"combined set not shattered at gamma={gamma} "
            f"(worst value {cert.worst_value:.4g}, Gram condition {cert.gram_condition:.3g})")
    targets = np.concatenate([S_train.labels, -test_labels])
    return min_norm_interpolator(combined / gamma, targets)


def per_size_learning_curve(spec: DistributionSpec, gamma: float, m_grid, trials: int,
                            learner_kind: str, seed: int, workers: int = 1) -> LearningCurve:
    """Oracle: one trial map per grid size, each trial drawing its train and
    test samples afresh at that size."""

    def one(m: int, t: int) -> float:
        return _run_learner(learner_kind, sample(spec, m, seed, stream=2 * t),
                            sample(spec, m, seed, stream=2 * t + 1),
                            gamma, seed=seed * 1_000_003 + t)

    entries = []
    for m in m_grid:
        errs = np.array(map_trials(lambda t: one(m, t), trials, workers))
        entries.append(CurveEntry(m=int(m), mean_test_error=float(errs.mean()),
                                  std_error=float(errs.std(ddof=1) / math.sqrt(trials))
                                  if trials > 1 else 0.0,
                                  trials=trials))
    digest = hashlib.sha256(
        json.dumps(spec.to_json(), sort_keys=True).encode()).hexdigest()[:16]
    return LearningCurve(gamma=float(gamma), entries=tuple(entries),
                         learner_kind=learner_kind, distribution_digest=digest,
                         lstar=estimate_lstar(spec, gamma, seed), seed=seed)
