import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margin_spectra.spectral import (
    TAIL_TOL,
    CovarianceSpectrum,
    SpectrumValidationError,
    b_for_k,
    check_growth_bound,
    k_gamma,
    read_spectrum_csv,
    set_limit_certificate,
    write_spectrum_csv,
)
import oracles


def spectrum(*vals):
    return CovarianceSpectrum(np.array(vals, dtype=float))


def k_gamma_oracle(eigenvalues, gamma):
    """Independent linear scan straight off the defining inequality."""
    ev = list(eigenvalues)
    for k in range(len(ev) + 1):
        if sum(ev[k:]) <= gamma * gamma * k + 1e-12 * max(1.0, sum(ev)):
            return k
    raise AssertionError


class TestKGamma:
    def test_spiky_spectrum(self):
        s = CovarianceSpectrum(np.array([1000.0] + [0.001] * 1000))
        assert k_gamma(s, 1.0).k == 1

    def test_all_zero_spectrum(self):
        assert k_gamma(spectrum(0, 0, 0), 2.5).k == 0

    def test_small_spectrum(self):
        res = k_gamma(spectrum(4, 1, 1, 1, 1), 1.0)
        assert res.k == 3
        assert res.tail_sum == pytest.approx(2.0)

    def test_isotropic(self):
        assert k_gamma(CovarianceSpectrum(np.ones(10)), 1.0).k == 5

    def test_tail_invariant(self):
        res = k_gamma(spectrum(4, 1, 1, 1, 1), 1.0)
        assert res.tail_sum <= res.gamma**2 * res.k + 1e-9
        # minimality: k-1 fails
        assert 3.0 > 1.0 * (res.k - 1)

    def test_rejects_bad_gamma(self):
        with pytest.raises(SpectrumValidationError):
            k_gamma(spectrum(1, 1), 0.0)

    @pytest.mark.parametrize("delta, k", [(0.9, 1), (1.1, 2)])
    def test_tail_tolerance_edge(self, delta, k):
        # spectrum (t, t) at gamma 1: k = 1 holds iff t <= 1 + TAIL_TOL * trace,
        # and the trace is 2t, so t = 1 + 2 delta TAIL_TOL is inside for delta < 1
        assert TAIL_TOL == 1e-12
        t = 1.0 + 2.0 * delta * TAIL_TOL
        assert k_gamma(spectrum(t, t), 1.0).k == k

    def test_rejects_unsorted(self):
        with pytest.raises(SpectrumValidationError):
            spectrum(1, 2)

    def test_rejects_negative(self):
        with pytest.raises(SpectrumValidationError):
            spectrum(1, -0.5)


class TestBForK:
    def test_tail(self):
        assert b_for_k(spectrum(4, 1, 1, 1, 1), 2) == pytest.approx(3.0)

    def test_k_equals_d(self):
        assert b_for_k(spectrum(4, 1, 1, 1, 1), 5) == 0.0

    def test_k_zero_is_trace(self):
        assert b_for_k(spectrum(4, 1, 1, 1, 1), 0) == pytest.approx(8.0)

    def test_rejects_k_beyond_d(self):
        with pytest.raises(SpectrumValidationError):
            b_for_k(spectrum(1, 1), 3)


class TestLimitCertificateArguments:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="sample matrix entries must be finite"):
            set_limit_certificate(np.array([[3.0, 0.0], [bad, 1.0]]), 1)

    @pytest.mark.parametrize("k", [-1, 3, 1.0, True])
    def test_rejects_bad_k(self, k):
        with pytest.raises(SpectrumValidationError, match="k must be an integer"):
            set_limit_certificate(np.array([[3.0, 0.0], [0.0, 1.0]]), k)


class TestSetLimitCertificate:
    def test_two_points(self):
        cert = set_limit_certificate(np.array([[3.0, 0], [0, 1.0]]), 1)
        assert cert.b == pytest.approx(1.0)
        assert np.allclose(np.abs(cert.top_basis), [[1, 0]])

    def test_k_equals_d(self):
        cert = set_limit_certificate(np.array([[3.0, 0], [0, 1.0]]), 2)
        assert cert.b == 0.0

    def test_single_point_identity(self):
        cert = set_limit_certificate(np.array([[5.0, 0]]), 0)
        assert cert.b == pytest.approx(25.0)

    def test_axis_aligned_oracle(self):
        # exhaustive check over axis-aligned complements: the PCA complement
        # is at least as good for axis-aligned data
        pts = np.array([[3.0, 0], [0, 1.0]])
        axis_best = min(max(p[1] ** 2 for p in pts), max(p[0] ** 2 for p in pts))
        cert = set_limit_certificate(pts, 1)
        assert cert.b <= axis_best + 1e-12

    @given(st.integers(0, 4), st.integers(1, 6), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_membership_and_orthonormality(self, k, m, raw_seed):
        rng = np.random.default_rng(raw_seed)
        d = 4
        k = min(k, d)
        pts = rng.standard_normal((m, d)) * 3
        cert = set_limit_certificate(pts, k)
        top = cert.top_basis
        assert top.shape == (min(k, m), d)
        assert np.allclose(top @ top.T, np.eye(len(top)), atol=1e-10)
        for x in pts:
            assert np.sum((x - top.T @ (top @ x)) ** 2) <= cert.b + 1e-9


# |b(thin SVD) - b(full SVD)| and the squared norm of a point off span(top_basis)
# beyond b, relative to max(1, max ||x||^2)
CERT_TOL = 1e-12


def certificate_cases():
    """Random sets with m < d, m > d, a zero row, duplicate rows and rank 1,
    each at every k = 0..d (so k > rank and k = d are covered)."""
    rng = np.random.default_rng(1305)
    for i in range(240):
        m, d = int(rng.integers(1, 16)), int(rng.integers(1, 12))
        X = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-2, 2)
        kind = ("plain", "zero", "duplicate", "rank1")[i % 4]
        if kind == "zero":
            X[rng.integers(m)] = 0.0
        elif kind == "duplicate":
            X[rng.integers(m)] = X[0]
        elif kind == "rank1":
            X = np.outer(rng.standard_normal(m), rng.standard_normal(d))
        for k in range(d + 1):
            yield kind, X, k


class TestCertificateOracle:
    def test_matches_full_svd_oracle(self):
        seen = dict.fromkeys(["m<d", "m>d", "zero", "duplicate", "rank1", "k>rank", "k=d"], 0)
        worst = 0.0
        for kind, X, k in certificate_cases():
            m, d = X.shape
            scale = max(1.0, float(np.max(np.sum(X * X, axis=1))))
            cert, ref = set_limit_certificate(X, k), oracles.set_limit_certificate(X, k)
            worst = max(worst, abs(cert.b - ref.b) / scale)
            top = cert.top_basis
            assert cert.k == k and top.shape == (min(k, m, d), d)
            assert np.allclose(top @ top.T, np.eye(len(top)), atol=1e-10)
            off = X - (X @ top.T) @ top
            assert np.sum(off * off, axis=1).max() <= cert.b + CERT_TOL * scale
            seen[kind] = seen.get(kind, 0) + 1
            seen["m<d"] += m < d
            seen["m>d"] += m > d
            seen["k>rank"] += k > np.linalg.matrix_rank(X)
            seen["k=d"] += k == d
        assert worst <= CERT_TOL
        assert min(seen.values()) >= 50

    def test_memory_linear_in_d(self):
        # 20 points in d = 4000: the full SVD's 4000 x 4000 basis alone is 128 MB
        X = np.random.default_rng(7).standard_normal((20, 4000))
        tracemalloc.start()
        try:
            cert = set_limit_certificate(X, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.top_basis.shape == (2, 4000)
        assert peak - X.nbytes < 8 * 2**20


class TestGrowthBound:
    def test_small_spectrum(self):
        rep = check_growth_bound(spectrum(4, 1, 1, 1, 1), 1.0, 0.5)
        assert (rep.k_gamma, rep.k_alphagamma, rep.holds) == (3, 4, True)

    def test_isotropic(self):
        rep = check_growth_bound(CovarianceSpectrum(np.ones(10)), 1.0, 0.5)
        assert (rep.k_gamma, rep.k_alphagamma, rep.holds) == (5, 8, True)

    def test_all_zero(self):
        rep = check_growth_bound(spectrum(0, 0), 1.0, 0.3)
        assert (rep.k_gamma, rep.k_alphagamma, rep.holds) == (0, 0, True)

    def test_rejects_bad_alpha(self):
        with pytest.raises(SpectrumValidationError):
            check_growth_bound(spectrum(1, 1), 1.0, 1.5)


@st.composite
def random_spectra(draw):
    d = draw(st.integers(1, 20))
    vals = draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d))
    return CovarianceSpectrum(np.sort(np.array(vals))[::-1])


class TestProperties:
    @given(random_spectra(), st.floats(0.1, 10), st.floats(0.1, 10))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_gamma(self, s, g1, g2):
        lo, hi = sorted((g1, g2))
        assert k_gamma(s, lo).k >= k_gamma(s, hi).k

    @given(random_spectra(), st.floats(0.1, 10), st.floats(0.1, 10))
    @settings(max_examples=200, deadline=None)
    def test_scale_equivariance(self, s, gamma, c):
        scaled = CovarianceSpectrum(s.eigenvalues * c * c)
        assert k_gamma(s, gamma).k == k_gamma(scaled, c * gamma).k

    @given(random_spectra(), st.floats(0.1, 10))
    @settings(max_examples=200, deadline=None)
    def test_upper_bounds(self, s, gamma):
        k = k_gamma(s, gamma).k
        assert k <= s.dimension
        assert k <= math.ceil(s.trace / gamma**2)

    @given(random_spectra(), st.floats(0.1, 10))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, s, gamma):
        assert k_gamma(s, gamma).k == k_gamma_oracle(s.eigenvalues, gamma)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        s = spectrum(4, 1, 0.25)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, s)
        back = read_spectrum_csv(path)
        assert np.array_equal(back.eigenvalues, s.eigenvalues)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("4.0\n1.0\n")
        with pytest.raises(SpectrumValidationError):
            read_spectrum_csv(path)
