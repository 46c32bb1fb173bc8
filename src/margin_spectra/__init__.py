"""Spectral sample-complexity toolkit for large-margin linear classification."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    AdaptedDimResult,
    CovarianceSpectrum,
    LimitCertificate,
    b_for_k,
    check_growth_bound,
    k_gamma,
    set_limit_certificate,
)
from .shatter import (  # noqa: F401
    FatShatteringEstimate,
    ShatterCertificate,
    fat_shattering_search,
    fat_shattering_upper_bound,
    lambda_min_sufficient,
    shatter_at_origin,
    shatter_with_offsets,
)
from .dist import (  # noqa: F401
    CoordinateLaw,
    DistributionSpec,
    LabelModel,
    paper_example,
    relative_moment,
    sample,
)
from .randmat import (  # noqa: F401
    asymptotic_edge,
    edge_mc_compare,
    estimate_shatter_prob,
    m_underline,
)
from .learner import (  # noqa: F401
    LabeledSample,
    LearningCurve,
    adversarial_minimizer,
    empirical_sample_complexity,
    generative_nearest_mean,
    learning_curve,
    margin_error_minimize,
)
