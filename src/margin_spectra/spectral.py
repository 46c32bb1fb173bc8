"""Adapted dimension and projection-limit certificates from covariance spectra.

The central quantity is the margin-adapted dimension of a spectrum
``lambda_1 >= ... >= lambda_d``: the minimal ``k`` such that the eigenvalue
tail beyond ``k`` is at most ``gamma^2 * k``.  For finite point sets the
analogous object is a (b, k) certificate: a (d-k)-dimensional subspace onto
which every point projects with squared norm at most b.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .checks import check_int, check_positive, check_unit, finite_points

# Summation-order slack of the tail inequality, relative to max(1, trace).
TAIL_TOL = 1e-12


class SpectrumValidationError(ValueError):
    """Raised for malformed spectra or out-of-range parameters."""


@dataclass(frozen=True)
class CovarianceSpectrum:
    """Eigenvalues of a covariance matrix, sorted descending."""

    eigenvalues: np.ndarray
    dimension: int = field(init=False)

    def __post_init__(self):
        ev = finite_points(self.eigenvalues, 1, "spectrum", SpectrumValidationError)
        if np.any(ev < 0):
            raise SpectrumValidationError("spectrum entries must be non-negative")
        if np.any(np.diff(ev) > 0):
            raise SpectrumValidationError("spectrum must be sorted non-increasing")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "dimension", int(ev.size))

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())


@dataclass(frozen=True)
class AdaptedDimResult:
    k: int
    gamma: float
    tail_sum: float


@dataclass(frozen=True)
class LimitCertificate:
    b: float
    k: int
    top_basis: np.ndarray  # min(k, r) x d orthonormal rows; certified: their complement


@dataclass(frozen=True)
class GrowthBoundReport:
    k_gamma: int
    k_alphagamma: int
    holds: bool


def k_gamma(spectrum: CovarianceSpectrum, gamma: float) -> AdaptedDimResult:
    """Minimal k with sum of eigenvalues beyond k at most gamma^2 * k."""
    check_positive("gamma", gamma, SpectrumValidationError)
    ev = spectrum.eigenvalues
    tol = TAIL_TOL * max(1.0, spectrum.trace)
    # tails[k] = sum of eigenvalues with index > k (0-based: ev[k:] summed from k)
    tails = np.concatenate([np.cumsum(ev[::-1])[::-1], [0.0]])
    g2 = gamma * gamma
    for k in range(spectrum.dimension + 1):
        if tails[k] <= g2 * k + tol:
            return AdaptedDimResult(k=k, gamma=float(gamma), tail_sum=float(tails[k]))
    raise AssertionError("unreachable: k = d always satisfies the tail condition")


def b_for_k(spectrum: CovarianceSpectrum, k: int) -> float:
    """Sum of the d-k smallest eigenvalues (minimal b for the distribution variant)."""
    check_int("k", k, least=0, below=spectrum.dimension + 1, error=SpectrumValidationError)
    return float(spectrum.eigenvalues[k:].sum())


def projection_tails(points: np.ndarray):
    """(tails, vt) from one thin SVD of the m x d points: vt holds the r = min(m, d)
    right singular vectors, tails[i, k] is point i's squared norm off span(vt[:k]), k = 0..r."""
    u, s, vt = np.linalg.svd(points, full_matrices=False)
    return np.cumsum(np.pad((u * s) ** 2, ((0, 0), (0, 1)))[:, ::-1], axis=1)[:, ::-1], vt


def set_limit_certificate(points: np.ndarray, k: int) -> LimitCertificate:
    """Certify a point set as (b, k)-limited via the top-k principal subspace.

    b is the largest squared norm of a point off the span of `top_basis`, the top
    min(k, r) right singular vectors (r = min(m, d)); their orthogonal complement
    is certified.  When k > r it has dimension d - r >= d - k and b = 0, so any
    (d-k)-dimensional subspace of it certifies.  b need not be minimal over subspaces.
    """
    pts = finite_points(points)
    check_int("k", k, least=0, below=pts.shape[1] + 1, error=SpectrumValidationError)
    tails, vt = projection_tails(pts)  # vt[:k] is all of vt when k > r
    return LimitCertificate(b=float(tails[:, min(k, len(vt))].max()), k=k, top_basis=vt[:k].copy())


def check_growth_bound(spectrum: CovarianceSpectrum, gamma: float, alpha: float) -> GrowthBoundReport:
    """Check k_gamma <= k_{alpha*gamma} <= 2 k_gamma / alpha^2 + 1."""
    check_unit("alpha", alpha, error=SpectrumValidationError)
    kg = k_gamma(spectrum, gamma).k
    kag = k_gamma(spectrum, alpha * gamma).k
    holds = kg <= kag <= 2 * kg / (alpha * alpha) + 1
    return GrowthBoundReport(k_gamma=kg, k_alphagamma=kag, holds=bool(holds))


def read_spectrum_csv(path) -> CovarianceSpectrum:
    """Read a spectrum from CSV: header line ``eigenvalue``, one value per line."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["eigenvalue"]:
        raise SpectrumValidationError(f"{path}: expected header line 'eigenvalue'")
    values = [float(r[0]) for r in rows[1:] if r]
    return CovarianceSpectrum(np.array(values))


def write_spectrum_csv(path, spectrum: CovarianceSpectrum) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["eigenvalue"])
        for v in spectrum.eigenvalues:
            w.writerow([repr(float(v))])
