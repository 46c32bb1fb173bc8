import math

import numpy as np
import pytest
from oracles import (
    eigvalsh_sufficient,
    enumerating_shatter_certificate,
    hadamard,
    projection_limit_bound,
    sign_block,
)

from margin_spectra.optim import (
    SINGULARITY_RATIO,
    SingularGramError,
    gram_eig,
    gram_lambda_min_at_least,
    min_norm_interpolator,
)
from margin_spectra.shatter import (
    _CHUNK,
    SCREEN_SLACK,
    EnumerationCapError,
    SubsetBudgetError,
    _screen,
    _sign_rows,
    _sign_tables,
    fat_shattering_search,
    fat_shattering_upper_bound,
    lambda_min_sufficient,
    read_points_csv,
    shatter_at_origin,
    shatter_with_offsets,
    write_points_csv,
)


def constructive_verdict(X, gamma):
    """Oracle: per labeling, build the min-norm interpolator of (X/gamma, y)
    and test whether its norm stays within the unit ball."""
    m = X.shape[0]
    try:
        for mask in range(1 << (m - 1)):
            y = np.ones(m)
            for j in range(m - 1):
                if (mask >> j) & 1:
                    y[j + 1] = -1.0
            w = min_norm_interpolator(X / gamma, y)
            if np.linalg.norm(w) > 1.0 + 1e-9:
                return False
        return True
    except SingularGramError:
        return False


def random_instance(rng):
    m = int(rng.integers(1, 7))
    d = int(rng.integers(m, 9))
    scale = 10.0 ** rng.uniform(-1, 1)
    return rng.standard_normal((m, d)) * scale * math.sqrt(d)


class TestShatterAtOrigin:
    def test_orthogonal_rows_boundary(self):
        cert = shatter_at_origin(math.sqrt(2) * np.eye(2), 1.0)
        assert cert.shattered
        assert cert.worst_value == pytest.approx(1.0)

    def test_duplicate_rows_singular(self):
        cert = shatter_at_origin(np.array([[1.0, 2.0], [1.0, 2.0]]), 1.0)
        assert not cert.shattered
        assert cert.gram_condition <= 1e-10

    def test_unit_rows_not_shattered(self):
        cert = shatter_at_origin(np.eye(2), 1.0)
        assert not cert.shattered
        assert cert.worst_value == pytest.approx(2.0)

    def test_diagonal_gap_instance(self):
        cert = shatter_at_origin(np.array([[1.1, 0], [0, 10.0]]), 1.0)
        assert cert.shattered
        assert cert.worst_value == pytest.approx(1 / 1.21 + 1 / 100)

    def test_singular_ratio_is_gram_eig_ratio(self):
        X = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0], [1.0, 2.0, 0.5]])
        with pytest.raises(SingularGramError) as err:
            gram_eig(X / 0.7)
        cert = shatter_at_origin(X, 0.7)
        assert not cert.shattered
        assert cert.gram_condition == err.value.ratio

    def test_m_exceeding_d_not_shattered(self):
        cert = shatter_at_origin(np.ones((3, 2)) + np.eye(3, 2), 1.0)
        assert not cert.shattered

    def test_cap_error(self):
        with pytest.raises(EnumerationCapError):
            shatter_at_origin(np.eye(21), 1.0)

    def test_witness_margins(self):
        X = np.array([[1.1, 0], [0, 10.0]])
        cert = shatter_at_origin(X, 1.0)
        assert cert.shattered
        for mask in range(4):
            y = np.array([1.0 if mask & 1 else -1.0, 1.0 if mask & 2 else -1.0])
            w = min_norm_interpolator(X / 1.0, y)
            assert np.linalg.norm(w) <= 1 + 1e-8
            assert np.all(y * (X @ w) >= 1.0 - 1e-8)

    def test_matches_constructive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            X = random_instance(rng)
            cert = shatter_at_origin(X, 1.0)
            assert cert.shattered == constructive_verdict(X, 1.0)

    def test_certificate_serializes(self):
        cert = shatter_at_origin(math.sqrt(2) * np.eye(2), 1.0)
        d = cert.to_dict()
        assert d["shattered"] is True
        assert len(d["worst_labeling"]) == 2


def assert_same_certificate(X, gamma):
    got = shatter_at_origin(X, gamma)
    want = enumerating_shatter_certificate(X, gamma)
    assert got.shattered == want.shattered
    assert got.gamma == want.gamma
    assert got.worst_value == want.worst_value
    assert got.gram_condition == want.gram_condition
    assert np.array_equal(got.worst_labeling, want.worst_labeling)


def kept_chunks(X, gamma):
    """Number of _CHUNK blocks the split-sign screen keeps for X at gamma."""
    values, floor = _screen(*gram_eig(X / gamma))
    return int(np.sum(values.reshape(-1, _CHUNK).max(axis=1) >= floor))


class TestScreen:
    """The screened enumeration against the full one, bit for bit."""

    def test_random_multi_chunk_sets(self):
        rng = np.random.default_rng(2026)
        for m in range(17, 21):
            for kind in ("plain", "near_duplicate", "ill_scaled"):
                d = m + int(rng.integers(5, 40))
                X = rng.standard_normal((m, d))
                if kind == "near_duplicate":
                    X[-1] = X[0] + 10.0 ** rng.uniform(-4, -1) * rng.standard_normal(d)
                elif kind == "ill_scaled":
                    X *= np.exp(rng.uniform(-3, 3, m))[:, None]
                lam = np.linalg.eigvalsh(X @ X.T)[0]
                assert_same_certificate(X, math.sqrt(lam / m) * math.exp(rng.uniform(-0.5, 0.5)))

    @pytest.mark.parametrize("gamma", [0.5, math.sqrt(2 / 3), 1.0])
    @pytest.mark.parametrize("rotation_seed", [None, 2])
    def test_hadamard_ties_across_chunks(self, gamma, rotation_seed):
        # every labeling scores gamma^2 (16/16 + 1/4 + 1/4) in exact arithmetic;
        # a right rotation keeps the Gram matrix and moves the rounding
        X = np.zeros((18, 18))
        X[:16, :16] = hadamard(16)
        X[16, 16] = X[17, 17] = 2.0
        if rotation_seed is not None:
            rng = np.random.default_rng(rotation_seed)
            X = X @ np.linalg.qr(rng.standard_normal((18, 18)))[0]
        assert kept_chunks(X, gamma) == 2
        assert_same_certificate(X, gamma)

    @pytest.mark.parametrize("eta", [0.0, 1e-7])
    def test_near_singular_set(self, eta):
        # orthonormal rows, the last one a near copy of the first
        rng = np.random.default_rng(31)
        basis = np.linalg.qr(rng.standard_normal((24, 24)))[0].T
        X = basis[:20] + eta * rng.standard_normal((20, 24))
        X[-1] = X[0] + 2.2e-5 * basis[20]
        evals = np.linalg.eigvalsh(X @ X.T)
        assert SINGULARITY_RATIO < evals[0] / evals[-1] < 10 * SINGULARITY_RATIO
        if eta == 0.0:
            assert kept_chunks(X, 0.5) > 1
        for gamma in (0.5, 1e-5):
            assert_same_certificate(X, gamma)

    def test_single_chunk_sets(self):
        rng = np.random.default_rng(17)
        for m in (2, 5, 9, 13, 16, 17):
            X = rng.standard_normal((m, m + 3)) * np.exp(rng.uniform(-3, 3, m))[:, None]
            for gamma in (0.3, 1.0):
                assert_same_certificate(X, gamma)

    def test_sign_rows_match_bit_enumeration(self):
        rng = np.random.default_rng(5)
        for m in range(1, 23):
            y_p, y_q = _sign_tables(m)
            nq, total = y_q.shape[0], 1 << (m - 1)
            blocks = [(start, min(_CHUNK, total - start)) for start in
                      _CHUNK * rng.choice(-(-total // _CHUNK), min(3, -(-total // _CHUNK)),
                                          replace=False)]
            count = nq * int(rng.integers(1, -(-min(total, _CHUNK) // nq) + 1))
            blocks.append((total - count, count))  # a partial last block
            for start, count in blocks:
                assert np.array_equal(_sign_rows(y_p, y_q, start, count),
                                      sign_block(m, start, count))

    def test_screen_error_within_half_slack(self):
        rng = np.random.default_rng(14)
        eps = np.finfo(float).eps
        for i in range(300):
            m = int(rng.integers(1, 15))
            X = rng.standard_normal((m, m + int(rng.integers(0, 6))))
            if i % 2:
                X *= np.exp(rng.uniform(-3, 3, m))[:, None]
            try:
                evals, evecs = gram_eig(X)
            except SingularGramError:
                continue
            values, floor = _screen(evals, evecs)
            c = sign_block(m, 0, 1 << (m - 1)) @ evecs
            current = np.sum(c * c / evals, axis=1)
            bound = SCREEN_SLACK * m**3 * eps / evals[0] / 2
            assert np.max(np.abs(values - current)) <= bound
            assert values[np.argmax(current)] >= floor


class TestLambdaMinSufficient:
    def test_orthogonal_boundary(self):
        assert lambda_min_sufficient(math.sqrt(2) * np.eye(2), 1.0)

    def test_one_sided_gap(self):
        X = np.array([[1.1, 0], [0, 10.0]])
        assert not lambda_min_sufficient(X, 1.0)
        assert shatter_at_origin(X, 1.0).shattered

    def test_false_and_not_shattered(self):
        X = np.array([[2.0, 0], [0, 0.5]])
        assert not lambda_min_sufficient(X, 1.0)
        cert = shatter_at_origin(X, 1.0)
        assert not cert.shattered
        assert cert.worst_value == pytest.approx(4.25)

    def test_hadamard_tie_is_sufficient(self):
        # lambda_min = m gamma^2 exactly: G - t I is singular, so a plain
        # Cholesky test of it fails where eigvalsh says True
        H = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], float)
        assert gram_lambda_min_at_least(H @ H.T, 4.0)
        assert lambda_min_sufficient(H, 1.0)
        assert not lambda_min_sufficient(H, 1.0 + 1e-12)

    def test_matches_eigvalsh_verdict(self):
        rng = np.random.default_rng(11)
        cases = []
        for H in map(hadamard, (1, 2, 4, 8, 16)):  # exact ties: k rows of H_n at gamma^2 = n / k
            n = H.shape[0]
            for k in {n, max(1, n // 4), max(1, n // 16)}:
                for c in (1.0, 0.5, 3.0):
                    g = c * math.sqrt(n / k)
                    cases += [(c * H[:k], g), (c * H[:k], g * (1 + 1e-15)),
                              (c * H[:k], g * (1 - 1e-15))]
        for i in range(1000):
            m, d = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            X = rng.standard_normal((m, d))
            kind = i % 5
            if kind == 1:  # Rademacher: integer Gram matrices, frequent ties
                X = np.sign(X)
            elif kind == 2 and m > 1:
                X[-1] = X[0]  # duplicate row
            elif kind == 3:
                X[int(rng.integers(m))] = 0.0  # zero row
            elif kind == 4:  # lambda_max / lambda_min ~ 1e12: rounding ~1e-4 at lambda_min
                X[0] *= 1e6
                X = np.linalg.qr(rng.standard_normal((m, m)))[0] @ X
            lam = max(np.linalg.eigvalsh(X @ X.T)[0], 1e-3)
            for rel in (0.0, 1e-15, -1e-15, 1e-12, -1e-9, 1e-6, -1e-3, 0.5):
                cases.append((X, math.sqrt(lam / m) * (1 + rel)))
        shapes = [X.shape for X, _ in cases]
        assert sum(m > d for m, d in shapes) > 100 and sum(m <= d for m, d in shapes) > 100
        mismatches = [(X, g) for X, g in cases
                      if lambda_min_sufficient(X, g) != eigvalsh_sufficient(X, g)]
        assert mismatches == []
        assert 0 < sum(eigvalsh_sufficient(X, g) for X, g in cases) < len(cases)

    def test_sufficiency_never_contradicted(self):
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(1000):
            X = random_instance(rng)
            if lambda_min_sufficient(X, 1.0):
                hits += 1
                assert shatter_at_origin(X, 1.0).shattered
        assert hits > 20


class TestInvariances:
    def test_row_permutation(self):
        rng = np.random.default_rng(5)
        X = random_instance(rng)
        cert = shatter_at_origin(X, 1.0)
        perm = rng.permutation(X.shape[0])
        cert_p = shatter_at_origin(X[perm], 1.0)
        assert cert.shattered == cert_p.shattered
        assert cert.worst_value == pytest.approx(cert_p.worst_value)

    def test_right_rotation(self):
        rng = np.random.default_rng(6)
        X = random_instance(rng)
        q, _ = np.linalg.qr(rng.standard_normal((X.shape[1], X.shape[1])))
        cert = shatter_at_origin(X, 1.0)
        cert_r = shatter_at_origin(X @ q, 1.0)
        assert cert.shattered == cert_r.shattered
        assert cert.worst_value == pytest.approx(cert_r.worst_value)

    def test_gamma_scaling(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X = random_instance(rng)
            gamma = 10.0 ** rng.uniform(-1, 1)
            a = shatter_at_origin(X, gamma)
            b = shatter_at_origin(X / gamma, 1.0)
            assert a.shattered == b.shattered

    def test_subset_closure(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m, d = 4, 6
            X = rng.standard_normal((m, d)) * math.sqrt(d)
            if not shatter_at_origin(X, 1.0).shattered:
                continue
            for drop in range(m):
                sub = np.delete(X, drop, axis=0)
                assert shatter_at_origin(sub, 1.0).shattered


class TestOffsets:
    def test_zero_offsets_match_origin(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            d = int(rng.integers(m, 5))
            X = rng.standard_normal((m, d)) * 2
            assert (shatter_with_offsets(X, np.zeros(m), 1.0)
                    == shatter_at_origin(X, 1.0).shattered)

    def test_one_dimensional_infeasible_offset(self):
        assert not shatter_with_offsets(np.array([[0.5]]), np.array([-1.0]), 1.0)

    def test_smaller_margin_explicit_witness(self):
        assert shatter_with_offsets(np.eye(2), np.zeros(2), 0.7)


class TestUpperBound:
    def test_orthogonal_pair(self):
        assert fat_shattering_upper_bound(math.sqrt(2) * np.eye(2), 1.0) == 4

    def test_all_zero_points(self):
        assert fat_shattering_upper_bound(np.zeros((3, 2)), 1.0) == 1

    def test_single_long_point(self):
        assert fat_shattering_upper_bound(np.array([[10.0, 0]]), 1.0) == 3

    def test_matches_per_k_certificates(self):
        rng = np.random.default_rng(2024)
        seen = dict.fromkeys(["m>d", "m<d", "zero", "duplicate", "rank1"], 0)
        mismatches = []
        for i in range(1200):
            m, d = int(rng.integers(2, 25)), int(rng.integers(1, 40))
            X = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-1, 1)
            kind = ("plain", "zero", "duplicate", "rank1")[i % 4]
            if kind == "zero":
                X[rng.integers(m)] = 0.0
            elif kind == "duplicate":
                X[rng.integers(1, m)] = X[0]
            elif kind == "rank1":
                X = np.outer(rng.standard_normal(m), rng.standard_normal(d))
            seen[kind] = seen.get(kind, 0) + 1
            seen["m>d"] += m > d
            seen["m<d"] += m < d
            gamma = 10.0 ** rng.uniform(-1, 1)
            if fat_shattering_upper_bound(X, gamma) != projection_limit_bound(X, gamma):
                mismatches.append((i, m, d, kind, gamma))
        assert mismatches == []
        assert min(seen.values()) >= 100
        X = rng.standard_normal((20, 300))
        assert fat_shattering_upper_bound(X, 1.0) == projection_limit_bound(X, 1.0)


class TestFatShatteringSearch:
    def test_two_orthogonal_plus_origin(self):
        pts = np.vstack([math.sqrt(2) * np.eye(2), np.zeros(2)])
        est = fat_shattering_search(pts, 1.0, 3)
        assert est.lower == 2
        assert est.witness_subset == (0, 1)

    def test_single_zero_point(self):
        est = fat_shattering_search(np.zeros((1, 2)), 1.0, 1)
        assert est.lower == 0

    def test_lower_at_most_upper_random(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            pts = rng.standard_normal((6, 6)) * math.sqrt(6)
            est = fat_shattering_search(pts, 1.0, 6)
            assert est.lower <= est.upper

    def test_budget_error(self):
        with pytest.raises(SubsetBudgetError):
            fat_shattering_search(np.eye(30), 1.0, 19)


def test_points_csv_roundtrip(tmp_path):
    pts = np.array([[1.5, -2.0], [0.0, 3.25]])
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    assert np.array_equal(read_points_csv(path), pts)


# Each public entry point, called on a point set X at margin gamma.
ENTRY_POINTS = {
    "shatter_at_origin": lambda X, gamma: shatter_at_origin(X, gamma),
    "lambda_min_sufficient": lambda X, gamma: lambda_min_sufficient(X, gamma),
    "shatter_with_offsets": lambda X, gamma: shatter_with_offsets(X, np.zeros(len(X)), gamma),
    "fat_shattering_upper_bound": lambda X, gamma: fat_shattering_upper_bound(X, gamma),
    "fat_shattering_search": lambda X, gamma: fat_shattering_search(X, gamma, 2),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_entry_points_reject_non_finite_points(entry, bad):
    X = math.sqrt(2) * np.eye(2)
    X[1, 0] = bad
    with pytest.raises(ValueError, match="sample matrix entries must be finite"):
        ENTRY_POINTS[entry](X, 1.0)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, True])
def test_entry_points_reject_bad_gamma(entry, gamma):
    with pytest.raises(ValueError, match="gamma must be positive"):
        ENTRY_POINTS[entry](math.sqrt(2) * np.eye(2), gamma)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_points_csv_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "pts.csv"
    path.write_text(f"1.0,0.0\n0.0,{bad}\n")
    with pytest.raises(ValueError, match="sample matrix entries must be finite"):
        read_points_csv(path)


@pytest.mark.parametrize("r", [np.zeros(1), np.zeros(3), np.zeros((2, 1)),
                               np.array([0.0, math.nan]), np.array([math.inf, 0.0])])
def test_shatter_with_offsets_rejects_bad_offsets(r):
    # one offset per point, each finite: a single offset is not broadcast
    with pytest.raises(ValueError, match="offsets r"):
        shatter_with_offsets(2 * np.eye(2), r, 1.0)
