import math

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
        assert np.allclose(np.abs(cert.subspace_basis), [[0, 1]])

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
        basis = cert.subspace_basis
        assert np.allclose(basis @ basis.T, np.eye(d - k), atol=1e-10)
        for x in pts:
            assert np.sum((basis @ x) ** 2) <= cert.b + 1e-9


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
