import copy
import ctypes
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy
from scipy.linalg import cython_lapack
from scipy.sparse.linalg import ArpackNoConvergence

from margin_spectra import optim
from margin_spectra.optim import (
    FEAS_TOL,
    LANCZOS_MIN,
    LDP_TOL,
    TIE_TOL,
    SingularGramError,
    gram_lambda_min,
    min_norm_interpolator,
    solve_min_norm_ineq,
)
from margin_spectra.randmat import map_trials
from oracles import (
    brute_force_min_norm,
    f2py_cholesky,
    f2py_cholesky_in_place,
    f2py_cholesky_solve,
    hadamard,
    kkt_check,
)

# Stationarity residual ||A_act' lam - 2 w|| allowed per unit of max(1, ||w||);
# the worst seen on oracle_systems was 4.4e-14.
STATIONARITY_TOL = 1e-9


def oracle_systems(rng):
    """Random systems, each with the degenerate variants an LDP solve must
    handle, then one feasible system with a large-norm solution."""
    for _ in range(200):
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        A, b = rng.standard_normal((n, d)), rng.standard_normal(n)
        yield A, b
        yield np.vstack([A, A[:1]]), np.append(b, b[0])  # duplicate row
        yield np.vstack([A, -A[:1]]), np.append(b, -b[0])  # equality as a pair
        yield A, -np.abs(b)  # all b <= 0: the answer is w = 0
        yield np.vstack([A, np.zeros(d)]), np.append(b, 1.0)  # 0 >= 1: infeasible
    yield np.array([[1e-3, 0.0], [0.0, 1e-3], [1.0, 1.0]]), np.ones(3)


class TestInterpolator:
    def test_identity(self):
        assert np.allclose(min_norm_interpolator(np.eye(2), [1, -1]), [1, -1])

    def test_diagonal_scaling(self):
        assert np.allclose(min_norm_interpolator(2 * np.eye(2), [1, 1]), [0.5, 0.5])

    def test_wide_row(self):
        # least-norm solution oracle via the rowspace parametrization w = X' a
        assert np.allclose(min_norm_interpolator(np.array([[1.0, 1.0]]), [2.0]), [1, 1])

    def test_singular_raises_with_ratio(self):
        X = np.array([[1.0, 0], [1.0, 0]])
        with pytest.raises(SingularGramError) as ei:
            min_norm_interpolator(X, [1, -1])
        assert ei.value.ratio <= 1e-10

    @pytest.mark.parametrize("copy_fn", [copy.copy, lambda e: pickle.loads(pickle.dumps(e))],
                             ids=["copy", "pickle"])
    def test_singular_error_round_trips(self, copy_fn):
        err = SingularGramError(1e-15)
        back = copy_fn(err)
        assert type(back) is SingularGramError
        assert back.ratio == 1e-15
        assert str(back) == str(err)

    def test_interpolates_and_norm_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, d = rng.integers(1, 6), rng.integers(6, 9)
            X = rng.standard_normal((m, d))
            y = rng.standard_normal(m)
            w = min_norm_interpolator(X, y)
            assert np.max(np.abs(X @ w - y)) <= 1e-8 * max(1, np.linalg.norm(y))
            assert w @ w == pytest.approx(y @ np.linalg.solve(X @ X.T, y), rel=1e-8)

    def test_optimal_over_null_space(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m, d = 3, 7
            X = rng.standard_normal((m, d))
            y = rng.standard_normal(m)
            w = min_norm_interpolator(X, y)
            # null-space basis of X
            _, _, vt = np.linalg.svd(X)
            null = vt[m:]
            for _ in range(100):
                z = null.T @ rng.standard_normal(d - m)
                assert np.linalg.norm(w + z) >= np.linalg.norm(w) - 1e-10


class TestMinNormIneq:
    def test_no_constraints(self):
        sol = solve_min_norm_ineq(np.zeros((0, 3)), [])
        assert sol.status == "optimal"
        assert np.allclose(sol.w, 0)
        assert sol.objective == 0.0

    def test_single_halfspace(self):
        sol = solve_min_norm_ineq(np.array([[1.0, 0]]), [1.0])
        assert np.allclose(sol.w, [1, 0])

    def test_two_axis_constraints(self):
        sol = solve_min_norm_ineq(np.array([[1.0, 0], [0, 1.0]]), [1.0, 1.0])
        assert np.allclose(sol.w, [1, 1])
        assert sol.active_set == [0, 1]

    def test_infeasible(self):
        sol = solve_min_norm_ineq(np.array([[1.0, 0], [-1.0, 0]]), [1.0, 0.0])
        assert sol.status == "infeasible"

    def test_inactive_constraint(self):
        # second constraint already satisfied at the projection onto the first
        sol = solve_min_norm_ineq(np.array([[1.0, 0], [1.0, 1.0]]), [2.0, 1.0])
        assert np.allclose(sol.w, [2, 0])
        assert sol.active_set == [0]

    def test_matches_brute_force(self):
        checked = 0
        for A, b in oracle_systems(np.random.default_rng(7)):
            sol = solve_min_norm_ineq(A, b)
            oracle = brute_force_min_norm(A, b)
            if oracle is None:
                assert sol.status == "infeasible"
                assert sol.w is None and sol.objective == np.inf and sol.active_set == []
            else:
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(oracle @ oracle, abs=1e-6)
                rep = kkt_check(sol, A, b)
                assert rep.stationarity_residual <= STATIONARITY_TOL * max(
                    1.0, np.linalg.norm(sol.w))
                assert rep.multiplier_sign_ok
                assert rep.feasibility_violation <= FEAS_TOL * max(1.0, np.max(np.abs(b)))
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("factor, status", [(0.1, "optimal"), (10.0, "infeasible")])
    def test_ldp_tol_bounds_solution_norm(self, factor, status):
        # w >= B has ||r||^2 = 1 / (1 + B^2), so B = factor / LDP_TOL lands
        # on one side of the tolerance.
        bound = factor / LDP_TOL
        sol = solve_min_norm_ineq(np.array([[1.0]]), [bound])
        assert sol.status == status
        if status == "optimal":
            assert sol.w == pytest.approx([bound])

    def test_equality_as_paired_inequalities(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, d = 3, 5
            X = rng.standard_normal((m, d))
            y = rng.standard_normal(m)
            w_ref = min_norm_interpolator(X, y)
            sol = solve_min_norm_ineq(np.vstack([X, -X]), np.concatenate([y, -y]))
            assert sol.status == "optimal"
            assert np.allclose(sol.w, w_ref, atol=1e-6)

    @pytest.mark.parametrize("A, b", [(np.zeros((2, 3)), [1.0]),
                                      (np.zeros((1, 3)), [1.0, 2.0]),
                                      (np.zeros((0, 3)), [1.0])],
                             ids=["rows_over_bounds", "bounds_over_rows", "no_rows"])
    def test_shape_mismatch_raises(self, A, b):
        with pytest.raises(ValueError, match="constraint rows"):
            solve_min_norm_ineq(A, b)


class TestKktCheck:
    """The oracle itself: it passes a clean optimum and flags a bad one."""

    def test_clean_optimum(self):
        A, b = np.array([[1.0, 0]]), [1.0]
        rep = kkt_check(solve_min_norm_ineq(A, b), A, b)
        assert rep.stationarity_residual <= 1e-10
        assert rep.feasibility_violation <= 1e-10
        assert rep.multiplier_sign_ok

    def test_perturbed_solution_flags_residual(self):
        A, b = np.array([[1.0, 0]]), [1.0]
        sol = solve_min_norm_ineq(A, b)
        sol.w = sol.w + np.array([0.0, 1e-3])
        rep = kkt_check(sol, A, b)
        assert rep.stationarity_residual > 1e-4

    def test_rejects_infeasible_input(self):
        A, b = np.array([[1.0, 0], [-1.0, 0]]), [1.0, 0.0]
        sol = solve_min_norm_ineq(A, b)
        with pytest.raises(ValueError):
            kkt_check(sol, A, b)


@pytest.fixture
def fallbacks(monkeypatch):
    """The sizes of the Gram matrices gram_lambda_min hands to eigvalsh."""
    sizes = []
    real = optim._eigvalsh_min

    def spy(G):
        sizes.append(G.shape[0])
        return real(G)

    monkeypatch.setattr(optim, "_eigvalsh_min", spy)
    return sizes


def assert_brackets_eigvalsh(G):
    """gram_lambda_min(G) = rho with eigvalsh's lambda_min in (rho - band, rho]
    and within rounding of rho."""
    rho = gram_lambda_min(G)
    evals = np.linalg.eigvalsh(G)
    band = TIE_TOL * max(rho, float(np.trace(G)))
    rounding = G.shape[0] * np.finfo(float).eps * max(evals[-1], 1.0)
    assert rho - band < evals[0] <= rho + rounding
    assert abs(rho - evals[0]) <= rounding


class TestGramLambdaMin:
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("m, d", [(LANCZOS_MIN, 300), (300, 600), (400, 2000), (500, 520)])
    def test_random_grams_take_lanczos(self, kind, m, d, fallbacks):
        X = np.random.default_rng(m + d).standard_normal((m, d))
        if kind == "rademacher":
            X = np.sign(X)
        assert_brackets_eigvalsh(X @ X.T)
        assert fallbacks == []

    @pytest.mark.parametrize("rows, scale", [(512, 1.0), (300, 3.0), (LANCZOS_MIN, 0.5)])
    def test_hadamard_repeated_eigenvalues(self, rows, scale, fallbacks):
        # the Gram matrix of scaled Hadamard rows is scale^2 * 512 * I
        X = scale * hadamard(512)[:rows]
        assert_brackets_eigvalsh(X @ X.T)
        assert fallbacks == []

    def test_repeated_smallest_eigenvalue(self, fallbacks):
        X = hadamard(512)[:300] * np.r_[np.ones(5), np.linspace(1.5, 3.0, 295)][:, None]
        assert_brackets_eigvalsh(X @ X.T)
        assert fallbacks == []

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tiny_grams(self, m, fallbacks):
        X = np.random.default_rng(m).standard_normal((m, 4))
        assert_brackets_eigvalsh(X @ X.T)
        assert fallbacks == [m]

    @pytest.mark.parametrize("shape, duplicate", [((300, 600), True), ((300, 200), False)],
                             ids=["duplicate_rows", "m_over_d"])
    def test_singular_grams_take_eigvalsh(self, shape, duplicate, fallbacks):
        X = np.random.default_rng(4).standard_normal(shape)
        if duplicate:
            X[-1] = X[0]
        G = X @ X.T
        assert gram_lambda_min(G) == np.linalg.eigvalsh(G)[0]
        assert fallbacks == [shape[0]]

    def test_non_extremal_ritz_pair_fails_certificate(self, monkeypatch, fallbacks):
        X = np.random.default_rng(8).standard_normal((300, 600))
        G = X @ X.T
        evals, evecs = np.linalg.eigh(G)

        def second_pair(op, k, **kwargs):  # the Ritz pair of G's second eigenvalue
            return np.array([1.0 / evals[1]]), evecs[:, 1:2]

        monkeypatch.setattr(optim, "eigsh", second_pair)
        assert gram_lambda_min(G) == np.linalg.eigvalsh(G)[0]
        assert fallbacks == [300]

    def test_arpack_failure_takes_eigvalsh(self, monkeypatch, fallbacks):
        def no_convergence(op, k, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((op.shape[0], 0)))

        monkeypatch.setattr(optim, "eigsh", no_convergence)
        X = np.random.default_rng(9).standard_normal((300, 600))
        G = X @ X.T
        assert gram_lambda_min(G) == np.linalg.eigvalsh(G)[0]
        assert fallbacks == [300]

    def test_holds_one_extra_buffer(self):
        m = 1000
        X = np.random.default_rng(10).standard_normal((m, 2 * m))
        G = X @ X.T
        tracemalloc.start()
        try:
            gram_lambda_min(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * m + 2**21  # the factor, plus Lanczos vectors


def assert_matches_f2py(G, rhs):
    """optim's dpotrf and dpotrs give the f2py oracle's factor bytes, info and
    solve bytes on G and on each right-hand side in `rhs`."""
    factor, info = f2py_cholesky(G)
    a = np.array(G, order="F")
    assert optim._dpotrf(a) == info
    assert a.tobytes(order="F") == factor.tobytes(order="F")
    if info == 0:
        for b in rhs:
            x = optim._dpotrs(a, np.array(b, order="F"))
            assert x.tobytes(order="F") == f2py_cholesky_solve(factor, b).tobytes(order="F")


class TestLapackBinding:
    @pytest.mark.parametrize("m", [1, 2, 75, 150, LANCZOS_MIN, 600])
    def test_random_spd_grams_match_f2py(self, m):
        rng = np.random.default_rng(m)
        X = rng.standard_normal((m, m + 10))
        assert_matches_f2py(X @ X.T, [rng.standard_normal(m)])

    @pytest.mark.parametrize("rows, shift", [(64, 0.0), (64, 64.0), (64, 64.0 - 1e-7), (40, 64.0)])
    def test_hadamard_ties_match_f2py(self, rows, shift):
        # the Gram matrix of Hadamard rows is 64 I: a shift of 64 is an exact tie
        X = hadamard(64)[:rows]
        G = X @ X.T - shift * np.eye(rows)
        assert_matches_f2py(G, [np.ones(rows)])

    def test_singular_and_indefinite_match_f2py(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 40))
        X[-1] = X[0]
        Y = rng.standard_normal((30, 10))  # m > d
        Z = rng.standard_normal((30, 30))
        W = np.diag([4.0, 3.0, 2.0, -1.0, 5.0]) + 0.1
        for G in (X @ X.T, Y @ Y.T, Z + Z.T, W, np.zeros((4, 4))):
            assert_matches_f2py(G, [np.ones(G.shape[0])])
        # each failing factorization reports the order of its first bad minor
        assert [f2py_cholesky(G)[1] for G in (Z + Z.T, W, np.zeros((4, 4)))] == [1, 4, 1]

    def test_trial_threads_factor_as_one_thread(self):
        rng = np.random.default_rng(4)
        grams = [X @ X.T for X in (rng.standard_normal((300, 320)) for _ in range(16))]
        b = rng.standard_normal(300)

        def factor_and_solve(t):
            a = np.array(grams[t], order="F")
            info = optim._dpotrf(a)
            return info, a.tobytes(order="F"), optim._dpotrs(a, b.copy()).tobytes()

        assert map_trials(factor_and_solve, 16, workers=2) == \
            [factor_and_solve(t) for t in range(16)]

    @pytest.mark.parametrize("case", ["c_order", "float32", "strided", "non_square",
                                      "read_only", "list"])
    def test_factor_rejects_unsafe_arrays(self, case):
        G = np.array([[4.0, 1.0, 0.5], [2.0, 3.0, 0.25], [1.0, 0.0, 2.0]])
        a = {"c_order": G,
             "float32": np.asfortranarray(G, dtype=np.float32),
             "strided": np.asfortranarray(np.kron(G, np.ones((2, 2))))[::2, ::2],
             "non_square": np.asfortranarray(G[:, :2]),
             "read_only": np.asfortranarray(G),
             "list": G.tolist()}[case]
        if case == "read_only":
            a.flags.writeable = False
        before = copy.deepcopy(a)
        with pytest.raises(ValueError, match="writeable Fortran-contiguous float64"):
            optim._dpotrf(a)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("case", ["c_order", "matrix", "float32", "strided", "rows",
                                      "factor"])
    def test_solve_rejects_unsafe_arrays(self, case):
        # the one caller, the Lanczos matvec, solves for one vector at a time
        factor = np.asfortranarray(np.diag([2.0, 3.0, 4.0]))
        B = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        factor, b = {"c_order": (factor, np.ascontiguousarray(B)),
                     "matrix": (factor, B),
                     "float32": (factor, np.ones(3, dtype=np.float32)),
                     "strided": (factor, np.arange(6.0)[::2]),
                     "rows": (factor, np.ones(4)),
                     "factor": (np.ascontiguousarray(factor), np.ones(3))}[case]
        before = b.copy()
        with pytest.raises(ValueError, match="writeable Fortran-contiguous float64"):
            optim._dpotrs(factor, b)
        assert np.array_equal(b, before)

    @pytest.mark.parametrize("m", [300, 600])
    def test_lambda_min_matches_f2py_path(self, m, monkeypatch):
        X = np.random.default_rng(m).standard_normal((m, 2 * m))
        G = X @ X.T
        rho = gram_lambda_min(G)
        monkeypatch.setattr(optim, "_dpotrf", f2py_cholesky_in_place)
        monkeypatch.setattr(optim, "_dpotrs", f2py_cholesky_solve)
        assert gram_lambda_min(G).hex() == rho.hex()

    def test_signature_mismatch_raises_import_error(self, monkeypatch):
        ilp64 = ("void (char *, int64_t *, __pyx_t_5scipy_6linalg_13cython_lapack_d *, "
                 "int64_t *, int64_t *)")
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__}.*dpotrf"):
            optim._lapack_routine("dpotrf", ilp64)
        # a capsule that declares another signature than the binding assumes
        name = ilp64.encode()
        new_capsule = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p,
                                        ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))
        monkeypatch.setitem(cython_lapack.__pyx_capi__, "dpotrf", new_capsule(1, name, None))
        with pytest.raises(ImportError, match="LP64"):
            optim._lapack_routine("dpotrf", optim._SIGNATURES["dpotrf"])
