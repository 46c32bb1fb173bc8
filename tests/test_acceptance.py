"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(bypassing capture so the line is always visible), and enforces its runtime
budget.  Monte Carlo configurations are fully frozen (seed, trials, grids) so
reruns are byte-identical.
"""

import math
import time
import numpy as np
import pytest

from margin_spectra.dist import (
    CoordinateLaw,
    DistributionSpec,
    LabelModel,
    paper_example,
    sample,
)
from margin_spectra.learner import (
    LabeledSample,
    adversarial_minimizer,
    learning_curve,
    margin_loss,
    write_curve_csv,
)
from margin_spectra.optim import SingularGramError, min_norm_interpolator
from margin_spectra.randmat import (
    estimate_shatter_prob,
    m_underline,
    write_prob_curve_csv,
)
from margin_spectra.shatter import (
    fat_shattering_search,
    lambda_min_sufficient,
    shatter_at_origin,
)
from margin_spectra.spectral import CovarianceSpectrum, check_growth_bound, k_gamma


@pytest.fixture
def report(capsys):
    """Print one PASS/FAIL line per criterion, bypassing output capture."""
    def _line(num: int, ok: bool, detail: str, elapsed: float) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num:2d}] {status} - {detail} ({elapsed:.2f}s)",
                  flush=True)
    return _line


def iso_gaussian(d):
    return DistributionSpec(laws=(CoordinateLaw("gaussian"),) * d,
                            variances=np.ones(d),
                            label_model=LabelModel("coin", p=0.5))


def random_matrix(rng):
    m = int(rng.integers(1, 7))
    d = int(rng.integers(m, 9))
    scale = 10.0 ** rng.uniform(-1, 1)
    return rng.standard_normal((m, d)) * scale * math.sqrt(d)


def constructive_verdict(X, gamma):
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


def test_criterion_01_adapted_dimension_exactness(report):
    t0 = time.perf_counter()
    ok = k_gamma(paper_example("spiky", d=1001).spectrum(), 1.0).k == 1
    for d in (10, 21, 40):
        ok &= (k_gamma(paper_example("bernoulli", d=d).spectrum(), 1.0).k
               == math.ceil(d / 2))
    for v in (2.0, 4.0, 8.0):
        ok &= (k_gamma(paper_example("gaussian_mixture", d=100, v=v).spectrum(),
                       v / 2).k == math.ceil(100 / (1 + v * v / 4)))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, "closed-form adapted-dimension values exact", elapsed)
    assert ok


def test_criterion_02_growth_sandwich(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(1, 51))
        ev = np.sort(10.0 ** rng.uniform(-3, 3, size=d))[::-1]
        s = CovarianceSpectrum(ev)
        gamma = float(rng.uniform(0.1, 10.0))
        alpha = float(rng.choice([0.2, 0.5, 0.9]))
        rep = check_growth_bound(s, gamma, alpha)
        if not (rep.k_gamma <= rep.k_alphagamma and rep.holds):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    report(2, ok, f"growth sandwich, {violations} violations in 1000 spectra",
            elapsed)
    assert ok


def test_criterion_03_shatter_oracle_equivalence(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    mismatches = 0
    for _ in range(200):
        X = random_matrix(rng)
        if shatter_at_origin(X, 1.0).shattered != constructive_verdict(X, 1.0):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(3, ok, f"Gram-form vs constructive verdicts, {mismatches} mismatches",
            elapsed)
    assert ok


def test_criterion_04_lambda_min_sufficiency(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    counterexamples = 0
    sufficient_hits = 0
    for _ in range(1000):
        X = random_matrix(rng)
        if lambda_min_sufficient(X, 1.0):
            sufficient_hits += 1
            if not shatter_at_origin(X, 1.0).shattered:
                counterexamples += 1
    gap = np.array([[1.1, 0.0], [0.0, 10.0]])
    gap_ok = (not lambda_min_sufficient(gap, 1.0)
              and shatter_at_origin(gap, 1.0).shattered)
    elapsed = time.perf_counter() - t0
    ok = counterexamples == 0 and sufficient_hits > 0 and gap_ok
    report(4, ok, f"eigenvalue sufficiency ({sufficient_hits} hits, "
            f"{counterexamples} counterexamples) + one-sided gap instance", elapsed)
    assert ok


def test_criterion_05_fat_shattering_soundness(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    violations = 0
    for _ in range(100):
        m = int(rng.integers(1, 11))
        d = int(rng.integers(1, 7))
        pts = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-0.5, 0.5)
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        est = fat_shattering_search(pts, gamma, max_subset=min(m, d))
        if est.lower > est.upper:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report(5, ok, f"exhaustive lower bound vs formula, {violations} violations",
            elapsed)
    assert ok


def test_criterion_06_asymptotic_edge(report, tmp_path):
    from margin_spectra.randmat import edge_mc_compare

    t0 = time.perf_counter()
    rels = {}
    for kind in ("gaussian", "rademacher"):
        spec = DistributionSpec(laws=(CoordinateLaw(kind),) * 4000,
                                variances=np.ones(4000),
                                label_model=LabelModel("coin", p=0.5))
        for beta in (0.25, 0.5):
            rep = edge_mc_compare(spec, beta, 4000, trials=20, seed=606,
                                  workers=4)
            rels[(kind, beta)] = rep.rel_error
    elapsed = time.perf_counter() - t0
    worst = max(rels.values())
    ok = worst < 0.10 and elapsed < 120.0
    report(6, ok, f"spectral edge, worst relative error {worst:.3f}", elapsed)
    assert ok


def test_criterion_07_quarter_half_relation(report):
    t0 = time.perf_counter()
    res = m_underline(iso_gaussian(400), 1.0, m_max=150, trials=200, seed=11,
                      workers=4)
    elapsed = time.perf_counter() - t0
    ok = 40 <= res.m_underline <= 120 and elapsed < 180.0
    report(7, ok, f"m_underline = {res.m_underline}, bracket [40, 120]", elapsed)
    assert ok


def test_criterion_08_shattered_not_learned(report):
    t0 = time.perf_counter()
    spec = iso_gaussian(60)
    gamma, m, trials = 0.2, 10, 50
    prob = estimate_shatter_prob(spec, gamma, 2 * m, trials=trials, seed=808).prob
    errors = []
    zero_loss_every_trial = True
    for t in range(trials):
        tr = sample(spec, m, seed=808, stream=2 * t)
        te = sample(spec, m, seed=808, stream=2 * t + 1)
        train = LabeledSample(tr.points, tr.labels)
        w = adversarial_minimizer(train, te.points, te.labels, gamma)
        zero_loss_every_trial &= margin_loss(w, train, gamma) == 0.0
        pred = np.where(te.points @ w >= 0, 1.0, -1.0)
        errors.append(float(np.mean(pred != te.labels)))
    mean_err = float(np.mean(errors))
    elapsed = time.perf_counter() - t0
    ok = (prob >= 0.95 and mean_err >= 0.45 and zero_loss_every_trial
          and elapsed < 60.0)
    report(8, ok, f"shatter prob {prob:.2f}, adversarial mean test error "
            f"{mean_err:.2f}, zero train loss every trial: {zero_loss_every_trial}",
            elapsed)
    assert ok


def test_criterion_09_upper_bound_scaling(report):
    from margin_spectra.learner import empirical_sample_complexity, estimate_lstar

    t0 = time.perf_counter()
    spec = paper_example("spiky", d=1001)
    spiky = learning_curve(spec, 1.0, [4, 8, 16, 24, 32, 40], trials=10,
                           learner_kind="erm_heuristic", seed=123, workers=4)
    spiky_mc = empirical_sample_complexity(spiky, estimate_lstar(spec, 1.0, 123), 0.15)

    grid = [4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64]
    mcs = {}
    for d in (20, 40):
        spec = paper_example("bernoulli", d=d)
        curve = learning_curve(spec, 1.0, grid, trials=20, learner_kind="erm_heuristic",
                               seed=123, workers=4)
        mcs[d] = empirical_sample_complexity(curve, estimate_lstar(spec, 1.0, 123), 0.15)
    ratio = (mcs[40] / mcs[20]) if (mcs[20] and mcs[40]) else math.inf
    elapsed = time.perf_counter() - t0
    ok = (spiky_mc is not None and spiky_mc <= 40
          and 1.5 <= ratio <= 2.5 and elapsed < 300.0)
    report(9, ok, f"spiky complexity {spiky_mc} <= 40, bernoulli d40/d20 "
            f"ratio {ratio:.2f} in [1.5, 2.5]", elapsed)
    assert ok


def test_criterion_10_determinism(report, tmp_path):
    t0 = time.perf_counter()
    ok = True

    # eigenvalue-probability CSV (criterion 8 estimator)
    paths = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        est = estimate_shatter_prob(iso_gaussian(60), 0.2, 20, trials=50,
                                    seed=808, workers=workers)
        path = tmp_path / f"prob_{tag}.csv"
        write_prob_curve_csv(path, [est])
        paths.append(path.read_bytes())
    ok &= paths[0] == paths[1] == paths[2]

    # m_underline curve CSV (criterion 7 harness)
    paths = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        res = m_underline(iso_gaussian(400), 1.0, m_max=150, trials=200,
                          seed=11, workers=workers)
        path = tmp_path / f"mu_{tag}.csv"
        write_prob_curve_csv(path, res.estimates)
        paths.append(path.read_bytes())
    ok &= paths[0] == paths[1] == paths[2]

    # learning-curve CSV (criterion 9 harness)
    paths = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        curve = learning_curve(paper_example("spiky", d=1001), 1.0,
                               [4, 8, 16, 24, 32, 40], trials=10,
                               learner_kind="erm_heuristic", seed=123,
                               workers=workers)
        path = tmp_path / f"curve_{tag}.csv"
        write_curve_csv(path, curve)
        paths.append(path.read_bytes())
    ok &= paths[0] == paths[1] == paths[2]

    elapsed = time.perf_counter() - t0
    report(10, ok, "byte-identical CSVs across reruns and worker counts",
            elapsed)
    assert ok
