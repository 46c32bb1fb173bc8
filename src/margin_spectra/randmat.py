"""Monte Carlo estimation of smallest-Gram-eigenvalue probabilities, the
eigenvalue-based sample-complexity lower bound m_underline, and checks of the
asymptotic spectral edge.

Trials are independently seeded (base seed, trial index), so results are
identical for any worker count.  Within a trial, samples of different sizes
are nested prefixes of one stream, which makes the success indicator
{lambda_min(X_m X_m') >= m gamma^2} exactly non-increasing in m (Cauchy
interlacing on principal submatrices); the per-trial failure threshold can
therefore be located by bisection.  X_m X_m' is the leading m x m block of
the trial's one Gram matrix, and `optim.gram_lambda_min_at_least` decides the
indicator on it without an eigen-solve away from ties.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .checks import check_int, check_positive, check_unit
from .dist import DistributionSpec, DistSpecError, sample
from .optim import gram_lambda_min, gram_lambda_min_at_least

WILSON_Z = 1.959963984540054  # the standard normal 0.975 quantile, for 95% intervals


class MUnderlineNotFound(RuntimeError):
    """No m <= m_max had estimated success probability below 1/2."""

    def __init__(self, last_estimate):
        self.last_estimate = last_estimate
        super().__init__(
            f"success probability stayed >= 1/2 up to m={last_estimate.m} "
            f"(prob {last_estimate.prob:.3f}); increase m_max")

    def __reduce__(self):  # rebuild from the estimate, not the message, when pickled or copied
        return type(self), (self.last_estimate,)


@dataclass(frozen=True)
class EigenProbEstimate:
    m: int
    gamma: float
    prob: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int


@dataclass(frozen=True)
class MUnderlineResult:
    m_underline: int
    first_failing_m: int
    grid: tuple
    estimates: tuple  # per-m EigenProbEstimate


@dataclass(frozen=True)
class EdgeCompareReport:
    empirical_mean: float
    predicted: float
    rel_error: float


def wilson_interval(successes: int, trials: int):
    """Wilson 95% score interval for a binomial proportion."""
    check_int("trials", trials)
    check_int("successes", successes, least=0, below=trials + 1)
    p = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = WILSON_Z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _prob_estimate(m: int, gamma: float, successes: int, trials: int,
                   seed: int) -> EigenProbEstimate:
    """The success frequency of `trials` trials at size m, with its Wilson interval."""
    lo, hi = wilson_interval(successes, trials)
    return EigenProbEstimate(m=m, gamma=float(gamma), prob=successes / trials,
                             ci_low=lo, ci_high=hi, trials=trials, seed=seed)


def map_trials(fn, trials: int, workers: int):
    """Apply fn to each trial index on at most one thread per CPU; order by index."""
    check_int("trials", trials)
    check_int("workers", workers)
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, range(trials)))


def estimate_shatter_prob(spec: DistributionSpec, gamma: float, m: int,
                          trials: int, seed: int, workers: int = 1) -> EigenProbEstimate:
    """P[lambda_min(XX') >= m gamma^2] over `trials` independent m-samples."""
    check_int("m", m)
    check_positive("gamma", gamma)
    successes = map_trials(lambda t: _trial_indicator(spec, gamma, m, seed, t)(m),
                           trials, workers)
    return _prob_estimate(m, gamma, sum(successes), trials, seed)


def _trial_indicator(spec: DistributionSpec, gamma: float, m_max: int, seed: int,
                     stream: int):
    """The success indicator m -> lambda_min(X_m X_m') >= m gamma^2 of one
    trial, for m <= m_max: X_m is the m-prefix of the trial's one m_max-sample,
    so X_m X_m' is the leading m x m block of one Gram matrix."""
    X = sample(spec, m_max, seed, stream=stream).points
    G = X @ X.T
    return lambda m: gram_lambda_min_at_least(G[:m, :m], m * gamma * gamma)


def _trial_threshold(spec: DistributionSpec, gamma: float, m_max: int,
                     seed: int, stream: int) -> int:
    """Smallest failing m for one nested-sample trial, in [1, m_max + 1].

    m_max + 1 means no failure up to m_max.  Valid because the success
    indicator is non-increasing in m pathwise under nested sampling.
    """
    success = _trial_indicator(spec, gamma, m_max, seed, stream)
    if success(m_max):
        return m_max + 1
    lo, hi = 0, m_max  # success(lo) true by convention, success(hi) false
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if success(mid):
            lo = mid
        else:
            hi = mid
    return hi


def m_underline(spec: DistributionSpec, gamma: float, m_max: int,
                trials: int, seed: int, workers: int = 1) -> MUnderlineResult:
    """Half the minimal m at which the shatter probability drops below 1/2."""
    check_int("m_max", m_max)
    check_positive("gamma", gamma)

    thresholds = np.array(map_trials(
        lambda t: _trial_threshold(spec, gamma, m_max, seed, t), trials, workers))

    estimates = []
    first_failing = None
    for m in range(1, m_max + 1):
        est = _prob_estimate(m, gamma, int(np.sum(thresholds > m)), trials, seed)
        estimates.append(est)
        if first_failing is None and est.prob < 0.5:
            first_failing = m
    if first_failing is None:
        raise MUnderlineNotFound(estimates[-1])
    return MUnderlineResult(m_underline=first_failing // 2,
                            first_failing_m=first_failing,
                            grid=tuple(range(1, m_max + 1)),
                            estimates=tuple(estimates))


def asymptotic_edge(sigma: float, beta: float) -> float:
    """Limiting smallest eigenvalue sigma^2 (1 - sqrt(beta))^2 of (1/d) XX'."""
    check_unit("beta", beta)
    check_positive("sigma", sigma)
    return sigma * sigma * (1.0 - math.sqrt(beta)) ** 2


def edge_sample_size(spec: DistributionSpec, beta: float, d: int) -> int:
    """The sample size m = round(beta d) of an edge comparison.  Raises
    DistSpecError unless spec has iid coordinates of positive variance,
    ValueError unless beta is in (0, 1), d is spec's dimension and 1 <= m < d."""
    check_unit("beta", beta)
    kinds = {l.kind for l in spec.laws}
    if (len(kinds) != 1 or spec.rotation is not None or np.ptp(spec.variances) != 0
            or spec.variances[0] == 0):
        raise DistSpecError("the distribution must have iid coordinates (one law kind, equal "
                            "positive variances, no rotation) for the edge comparison")
    if spec.d != d:
        raise ValueError(f"d must equal the distribution's dimension {spec.d}, got {d!r}")
    m = round(beta * d)
    if not (1 <= m < d):
        raise ValueError(f"beta={beta} gives m={m} at d={d}, need 1 <= m < d")
    return m


def edge_mc_compare(spec: DistributionSpec, beta: float, d: int,
                    trials: int, seed: int, workers: int = 1) -> EdgeCompareReport:
    """Empirical mean of lambda_min(XX')/d against the asymptotic edge."""
    m = edge_sample_size(spec, beta, d)
    sigma = math.sqrt(float(spec.variances[0]))
    predicted = asymptotic_edge(sigma, m / d)

    def one(t: int) -> float:
        X = sample(spec, m, seed, stream=t).points
        G = X @ X.T
        del X  # so the solve holds G and one m x m buffer, not the m x d sample
        return gram_lambda_min(G) / d

    emp = float(np.mean(map_trials(one, trials, workers)))
    return EdgeCompareReport(empirical_mean=emp, predicted=predicted,
                             rel_error=abs(emp - predicted) / predicted)


def write_prob_curve_csv(path, estimates) -> None:
    """Emit probability estimates as CSV: m, gamma, prob, ci_low, ci_high, trials, seed."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["m", "gamma", "prob", "ci_low", "ci_high", "trials", "seed"])
        for e in estimates:
            w.writerow([e.m, repr(e.gamma), repr(e.prob), repr(e.ci_low),
                        repr(e.ci_high), e.trials, e.seed])
