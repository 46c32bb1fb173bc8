import math

import numpy as np
import pytest

from margin_spectra.checks import check_int, check_positive, check_unit, finite_points
from margin_spectra.dist import CoordinateLaw, DistributionSpec, LabelModel, sample
from margin_spectra.learner import learning_curve
from margin_spectra.randmat import (
    asymptotic_edge,
    edge_mc_compare,
    estimate_shatter_prob,
    m_underline,
    wilson_interval,
)
from margin_spectra.spectral import CovarianceSpectrum, k_gamma


class RuleError(ValueError):
    pass


# rule, values it accepts, values it rejects
RULES = [
    (check_positive, [1, 0.5, np.float32(2.0), np.int64(3), 1e300],
     [0, -1.0, math.nan, math.inf, True, np.bool_(True), "1", None]),
    (check_unit, [0.5, np.float64(0.25)], [0, 1, 1.5, math.nan, True, "0.5"]),
    (lambda name, v, error: check_unit(name, v, closed=True, error=error),
     [0, 1, 0.5, np.float64(1.0)], [-0.1, 1.1, math.nan, True, np.bool_(False)]),
    (check_int, [1, 7, np.int64(2), np.uint8(1)], [0, -2, 2.0, True, np.bool_(True), "3"]),
    (lambda name, v, error: check_int(name, v, least=0, below=4, error=error),
     [0, 3, np.int32(3)], [-1, 4, 2**63, 1.5, False]),
]


@pytest.mark.parametrize("rule, good, bad", RULES)
def test_rules_accept_numbers_and_reject_bools(rule, good, bad):
    for v in good:
        rule("arg", v, error=RuleError)
    for v in bad:
        with pytest.raises(RuleError, match="arg"):
            rule("arg", v, error=RuleError)


@pytest.mark.parametrize("values, ndim", [([1.0, math.nan], 1), ([[1.0], [-math.inf]], 2),
                                          ([[1.0]], 1), (1.0, 1), ([], 1), (np.zeros((0, 3)), 2)])
def test_finite_points_rejects_bad_shape_or_entries(values, ndim):
    with pytest.raises(RuleError, match="vec"):
        finite_points(values, ndim, "vec", RuleError)


def test_finite_points_reads_a_point_as_a_set_of_one():
    assert finite_points([1.0, 2.0]).shape == (1, 2)
    assert finite_points([1e308, 1e308], 1).tolist() == [1e308, 1e308]


def iso_gaussian(d):
    return DistributionSpec(laws=(CoordinateLaw("gaussian"),) * d, variances=np.ones(d),
                            label_model=LabelModel("coin", p=0.5))


# Calls that were accepted without a word (or failed with an unrelated
# error), each with the argument its error must name.
SILENT = {
    "edge_trials_0": (lambda: edge_mc_compare(iso_gaussian(8), 0.5, 8, 0, seed=1), "trials"),
    "prob_workers_0": (lambda: estimate_shatter_prob(iso_gaussian(8), 1.0, 3, 4, seed=1,
                                                     workers=0), "workers"),
    "m_underline_workers_0": (lambda: m_underline(iso_gaussian(8), 1.0, 8, 4, seed=1,
                                                  workers=0), "workers"),
    "edge_workers_0": (lambda: edge_mc_compare(iso_gaussian(8), 0.5, 8, 2, seed=1,
                                               workers=0), "workers"),
    "curve_workers_-1": (lambda: learning_curve(iso_gaussian(4), 1.0, [4], 2, "generative",
                                                seed=1, workers=-1), "workers"),
    "k_gamma_inf": (lambda: k_gamma(CovarianceSpectrum(np.ones(3)), math.inf), "gamma"),
    "k_gamma_true": (lambda: k_gamma(CovarianceSpectrum(np.ones(3)), True), "gamma"),
    "edge_sigma_inf": (lambda: asymptotic_edge(math.inf, 0.25), "sigma"),
    "wilson_successes_over_trials": (lambda: wilson_interval(3, 2), "successes"),
    "sample_float_m": (lambda: sample(iso_gaussian(2), 2.0, seed=1), "m"),
}


@pytest.mark.parametrize("case", SILENT)
def test_bad_values_are_rejected(case):
    call, name = SILENT[case]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()
