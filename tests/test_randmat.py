import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from margin_spectra import optim
from margin_spectra.dist import (
    CoordinateLaw,
    DistributionSpec,
    DistSpecError,
    LabelModel,
    paper_example,
    sample,
)
from margin_spectra.randmat import (
    MUnderlineNotFound,
    _trial_threshold,
    asymptotic_edge,
    edge_mc_compare,
    estimate_shatter_prob,
    m_underline,
    wilson_interval,
    write_prob_curve_csv,
)
from oracles import eigvalsh_threshold


def iso_gaussian(d, var=1.0):
    return DistributionSpec(laws=(CoordinateLaw("gaussian"),) * d,
                            variances=np.full(d, var),
                            label_model=LabelModel("coin", p=0.5))


class TestWilson:
    def test_contains_point_estimate(self):
        for s, n in [(0, 10), (5, 10), (10, 10), (37, 200)]:
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(10, 20)
        lo2, hi2 = wilson_interval(100, 200)
        assert hi2 - lo2 < hi1 - lo1


class TestEstimateShatterProb:
    def test_huge_gamma_prob_zero(self):
        est = estimate_shatter_prob(iso_gaussian(10), 1e6, 3, 20, seed=1)
        assert est.prob == 0.0

    def test_easy_regime_prob_one(self):
        est = estimate_shatter_prob(iso_gaussian(50), 0.1, 5, 200, seed=1)
        assert est.prob == 1.0

    def test_m_above_d_prob_zero(self):
        est = estimate_shatter_prob(iso_gaussian(4), 0.5, 6, 20, seed=1)
        assert est.prob == 0.0

    def test_reproducible_across_workers(self):
        a = estimate_shatter_prob(iso_gaussian(30), 1.0, 8, 100, seed=3, workers=1)
        b = estimate_shatter_prob(iso_gaussian(30), 1.0, 8, 100, seed=3, workers=4)
        assert a == b

    def test_ci_brackets_prob(self):
        est = estimate_shatter_prob(iso_gaussian(30), 1.0, 20, 100, seed=3)
        assert est.ci_low <= est.prob <= est.ci_high


class TestInterlacing:
    def test_pathwise_lambda_min_non_increasing(self):
        spec = iso_gaussian(20)
        for t in range(10):
            pts = sample(spec, 15, seed=7, stream=t).points
            lam = [np.linalg.eigvalsh(pts[:m] @ pts[:m].T)[0]
                   for m in range(1, 16)]
            assert all(lam[i + 1] <= lam[i] + 1e-9 for i in range(len(lam) - 1))

    def test_success_indicator_monotone(self):
        spec = iso_gaussian(25)
        gamma = 0.7
        for t in range(10):
            pts = sample(spec, 20, seed=11, stream=t).points
            succ = [np.linalg.eigvalsh(pts[:m] @ pts[:m].T)[0] >= m * gamma**2
                    for m in range(1, 21)]
            # once false, stays false
            assert all(succ[i] or not succ[i + 1] for i in range(len(succ) - 1))


class TestTrialThreshold:
    @pytest.mark.parametrize("spec, m_max, gammas", [
        (iso_gaussian(30), 40, (0.3, 0.7, 1.0, 1.6)),
        (paper_example("bernoulli", 12), 20, (0.3, 0.5, 0.7, 1.0, 1.3)),
        (paper_example("bernoulli", 40), 60, (0.37, 0.7, 1.0)),
    ])
    def test_matches_eigvalsh_bisection(self, spec, m_max, gammas):
        """Cholesky on blocks of one Gram matrix finds the thresholds that
        eigvalsh finds on each prefix."""
        for gamma in gammas:
            got, want = [], []
            for t in range(12):
                got.append(_trial_threshold(spec, gamma, m_max, seed=5, stream=t))
                pts = sample(spec, m_max, seed=5, stream=t).points
                want.append(eigvalsh_threshold(pts, gamma))
            assert got == want


class TestMUnderline:
    def test_zero_variance(self):
        res = m_underline(iso_gaussian(5, var=0.0), 1.0, m_max=4, trials=10, seed=1)
        assert res.first_failing_m == 1
        assert res.m_underline == 0

    def test_not_found(self):
        with pytest.raises(MUnderlineNotFound):
            m_underline(iso_gaussian(200), 0.01, m_max=5, trials=10, seed=1)

    @pytest.mark.parametrize("copy_fn", [copy.copy, lambda e: pickle.loads(pickle.dumps(e))],
                             ids=["copy", "pickle"])
    def test_not_found_round_trips(self, copy_fn):
        with pytest.raises(MUnderlineNotFound) as ei:
            m_underline(iso_gaussian(200), 0.01, m_max=5, trials=10, seed=1)
        back = copy_fn(ei.value)
        assert type(back) is MUnderlineNotFound
        assert back.last_estimate == ei.value.last_estimate
        assert str(back) == str(ei.value)

    def test_definition_against_estimates(self):
        res = m_underline(iso_gaussian(40), 1.0, m_max=40, trials=50, seed=2)
        below = [e.m for e in res.estimates if e.prob < 0.5]
        assert res.first_failing_m == min(below)
        assert res.m_underline == res.first_failing_m // 2
        assert res.grid == tuple(range(1, 41))

    def test_probability_curve_roughly_monotone(self):
        res = m_underline(iso_gaussian(40), 1.0, m_max=40, trials=50, seed=2)
        probs = [e.prob for e in res.estimates]
        # exact monotonicity holds pathwise; the aggregate is monotone too
        assert all(probs[i + 1] <= probs[i] + 1e-12 for i in range(len(probs) - 1))

    def test_reproducible_across_workers(self):
        a = m_underline(iso_gaussian(40), 1.0, m_max=30, trials=40, seed=5, workers=1)
        b = m_underline(iso_gaussian(40), 1.0, m_max=30, trials=40, seed=5, workers=4)
        assert a == b


class TestAsymptoticEdge:
    def test_formula(self):
        assert asymptotic_edge(1.0, 0.25) == pytest.approx(0.25)

    def test_beta_to_zero_limit(self):
        assert asymptotic_edge(1.0, 1e-12) == pytest.approx(1.0, abs=1e-5)

    def test_sigma_scaling(self):
        assert asymptotic_edge(2.0, 0.25) == pytest.approx(1.0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            asymptotic_edge(1.0, 1.0)


class TestEdgeCompare:
    def test_moderate_scale_gaussian(self):
        rep = edge_mc_compare(iso_gaussian(600), 0.25, 600, trials=5, seed=3)
        assert rep.rel_error < 0.15

    def test_lanczos_path_deterministic(self, monkeypatch):
        eigsh_calls = []
        real_eigsh = optim.eigsh

        def counted_eigsh(*args, **kwargs):
            eigsh_calls.append(1)
            return real_eigsh(*args, **kwargs)

        def no_fallback(G):
            raise AssertionError(f"eigvalsh fallback at m={G.shape[0]}")

        monkeypatch.setattr(optim, "eigsh", counted_eigsh)
        monkeypatch.setattr(optim, "_eigvalsh_min", no_fallback)
        spec = iso_gaussian(600)
        runs = [edge_mc_compare(spec, 0.5, 600, trials=4, seed=12, workers=w) for w in (1, 2, 1)]
        assert len(eigsh_calls) == 12
        assert runs[0].rel_error < 0.15
        assert [repr(r) for r in runs[1:]] == [repr(runs[0])] * 2

    def test_trial_holds_sample_gram_and_one_buffer(self):
        m, d = 1000, 2000
        edge_mc_compare(iso_gaussian(d), 0.5, d, trials=1, seed=3)  # warm the imports
        tracemalloc.start()
        try:
            edge_mc_compare(iso_gaussian(d), 0.5, d, trials=1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (m * d + 2 * m * m) + 2**21

    def test_rejects_non_iid(self):
        spec = DistributionSpec(laws=(CoordinateLaw("gaussian"), CoordinateLaw("rademacher")),
                                variances=np.ones(2),
                                label_model=LabelModel("coin", p=0.5))
        with pytest.raises(ValueError):
            edge_mc_compare(spec, 0.5, 2, trials=1, seed=1)

    def test_rejects_zero_variance(self):
        spec = DistributionSpec(laws=(CoordinateLaw("gaussian"),) * 8, variances=np.zeros(8),
                                label_model=LabelModel("coin", p=0.5))
        with pytest.raises(DistSpecError, match="positive variances"):
            edge_mc_compare(spec, 0.5, 8, trials=1, seed=1)

    def test_rejects_m_equal_d(self):
        with pytest.raises(ValueError):
            edge_mc_compare(iso_gaussian(10), 0.99999, 10, trials=1, seed=1)


def test_prob_curve_csv(tmp_path):
    est = estimate_shatter_prob(iso_gaussian(10), 1.0, 3, 20, seed=1)
    path = tmp_path / "curve.csv"
    write_prob_curve_csv(path, [est])
    lines = path.read_text().splitlines()
    assert lines[0] == "m,gamma,prob,ci_low,ci_high,trials,seed"
    assert len(lines) == 2


@pytest.mark.parametrize("estimate", [estimate_shatter_prob, m_underline])
@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, True])
def test_rejects_bad_gamma(estimate, gamma):
    with pytest.raises(ValueError, match="gamma must be positive"):
        estimate(paper_example("bernoulli", d=8), gamma, 4, 5, seed=1)
