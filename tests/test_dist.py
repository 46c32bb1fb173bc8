import math
import tracemalloc

import numpy as np
import pytest

from margin_spectra.dist import (
    GAUSSIAN,
    GAUSSIAN_MIXTURE_SYMMETRIC,
    LAW_KINDS,
    RADEMACHER,
    RADEMACHER_WORDS,
    UNIFORM_SYMMETRIC,
    CoordinateLaw,
    DistSpecError,
    DistributionSpec,
    LabeledSample,
    LabelModel,
    halfspace_prefix,
    paper_example,
    relative_moment,
    sample,
)
from margin_spectra.spectral import k_gamma
from oracles import per_point_sample


def gaussian_spec(variances, label=None):
    variances = np.asarray(variances, dtype=float)
    return DistributionSpec(
        laws=tuple(CoordinateLaw(GAUSSIAN) for _ in variances),
        variances=variances,
        label_model=label or LabelModel("coin", p=0.5),
    )


class TestSampling:
    def test_zero_variance_gives_zero_points(self):
        S = sample(gaussian_spec([0.0, 0.0]), 20, seed=1)
        assert np.all(S.points == 0)

    def test_determinism(self):
        spec = gaussian_spec([4.0, 1.0])
        a = sample(spec, 50, seed=9)
        b = sample(spec, 50, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_nested_prefix(self):
        spec = gaussian_spec([4.0, 1.0])
        small = sample(spec, 10, seed=9)
        big = sample(spec, 25, seed=9)
        assert np.array_equal(small.points, big.points[:10])

    def test_streams_differ(self):
        spec = gaussian_spec([1.0])
        a = sample(spec, 10, seed=9, stream=0)
        b = sample(spec, 10, seed=9, stream=1)
        assert not np.array_equal(a.points, b.points)

    def test_empirical_variances(self):
        spec = gaussian_spec([4.0, 1.0])
        S = sample(spec, 10_000, seed=12)
        v = S.points.var(axis=0)
        assert v[0] == pytest.approx(4.0, rel=0.05)
        assert v[1] == pytest.approx(1.0, rel=0.05)

    def test_rotation_covariance(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        spec = DistributionSpec(
            laws=(CoordinateLaw(GAUSSIAN),) * 3,
            variances=np.array([4.0, 2.0, 0.5]),
            rotation=q,
            label_model=LabelModel("coin", p=0.5),
        )
        S = sample(spec, 50_000, seed=4)
        target = q @ np.diag([4.0, 2.0, 0.5]) @ q.T
        emp = np.cov(S.points.T)
        se = 5 * np.sqrt(2.0 / 50_000) * 4.0
        assert np.max(np.abs(emp - target)) < se

    def test_mixture_marginal_variance(self):
        spec = paper_example("gaussian_mixture", d=5, v=4.0)
        S = sample(spec, 50_000, seed=5)
        assert S.points[:, 0].var() == pytest.approx(17.0, rel=0.05)

    def test_rejects_bad_m(self):
        with pytest.raises(DistSpecError):
            sample(gaussian_spec([1.0]), 0, seed=1)

    @pytest.mark.parametrize("seed, stream", [
        (-3, 0), (2**63, 0), (2**63 + 7, 0), (1.5, 0), (1, -1), (1, 2**63)])
    def test_rejects_seed_or_stream_outside_key_range(self, seed, stream):
        # out of [0, 2**63) the Philox key wraps: -3 would alias -4
        with pytest.raises(DistSpecError):
            sample(gaussian_spec([1.0]), 3, seed=seed, stream=stream)

    def test_accepts_largest_seed_and_stream(self):
        S = sample(gaussian_spec([1.0]), 3, seed=2**63 - 1, stream=2**63 - 1)
        assert S.m == 3


def oracle_specs():
    """Every law kind and label model, each with and without a rotation."""
    laws = (CoordinateLaw(GAUSSIAN), CoordinateLaw(RADEMACHER),
            CoordinateLaw(UNIFORM_SYMMETRIC),
            CoordinateLaw(GAUSSIAN_MIXTURE_SYMMETRIC, {"v": 0.7}),
            CoordinateLaw(GAUSSIAN_MIXTURE_SYMMETRIC, {"v": 2.0}), CoordinateLaw(GAUSSIAN))
    variances = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 0.0])
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    labels = (LabelModel("halfspace", w=np.ones(6)), LabelModel("coin", p=0.3),
              LabelModel("halfspace_with_flip", w=np.arange(6.0), flip=0.2),
              LabelModel("mixture_component"))
    return [DistributionSpec(laws=laws, variances=variances, label_model=lm, rotation=r)
            for lm in labels for r in (None, q)]


def rademacher_oracle_specs(k: int):
    """k Rademacher coordinates, then a uniform, two mixture and one Gaussian
    coordinate, under every label model: the raw-word sign path, its odd last
    sign and the generator calls that follow it."""
    d = k + 4
    laws = ((CoordinateLaw(RADEMACHER),) * k
            + (CoordinateLaw(UNIFORM_SYMMETRIC),
               CoordinateLaw(GAUSSIAN_MIXTURE_SYMMETRIC, {"v": 1.3}),
               CoordinateLaw(GAUSSIAN_MIXTURE_SYMMETRIC, {"v": 0.4}), CoordinateLaw(GAUSSIAN)))
    variances = np.linspace(0.5, 2.0, d)
    w = np.cos(np.arange(d, dtype=float))
    labels = (LabelModel("halfspace", w=w), LabelModel("coin", p=0.6),
              LabelModel("halfspace_with_flip", w=w, flip=0.3),
              LabelModel("mixture_component"))
    return [DistributionSpec(laws=laws, variances=variances, label_model=lm) for lm in labels]


def wide_halfspace_specs():
    """A d=257 halfspace, with and without a rotation, whose w entries span 16
    orders of magnitude: the label's dot product crosses BLAS block edges."""
    d = 257
    laws = tuple(CoordinateLaw(GAUSSIAN if i % 3 else UNIFORM_SYMMETRIC) for i in range(d))
    w = np.logspace(-8, 8, d) * np.where(np.arange(d) % 2, -1.0, 1.0)
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((d, d)))
    return [DistributionSpec(laws=laws, variances=np.linspace(0.1, 3.0, d),
                             label_model=LabelModel("halfspace", w=w), rotation=r)
            for r in (None, q)]


@pytest.mark.parametrize("spec", oracle_specs()
                         + [s for k in (2, 3, 20, 21) for s in rademacher_oracle_specs(k)]
                         + wide_halfspace_specs())
def test_matches_per_point_generator_oracle(spec):
    """One generator reset per point draws the same bits as one generator per
    point, and numpy integer seeds and streams draw what plain ints do."""
    for seed in (0, 7, 2**63 - 1):
        for stream in (0, 7, 2**63 - 1):
            got = sample(spec, 25, seed, stream=stream)
            want = per_point_sample(spec, 25, seed, stream=stream)
            assert got.points.tobytes() == want.points.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()
    top = 2**63 - 1
    numpy_ints = sample(spec, 25, np.uint64(top), stream=np.int64(top))
    assert numpy_ints.points.tobytes() == got.points.tobytes()
    assert numpy_ints.labels.tobytes() == got.labels.tobytes()


@pytest.mark.parametrize("k", [20, 21])
def test_matches_oracle_past_one_word_block(k):
    """A sample longer than one block of the Rademacher word buffer, ending
    inside a partly filled block."""
    spec = rademacher_oracle_specs(k)[2]
    m = RADEMACHER_WORDS // (k // 2) + 37
    got = sample(spec, m, seed=3, stream=1)
    want = per_point_sample(spec, m, seed=3, stream=1)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def test_halfspace_prefix_draws_the_leading_columns():
    """On random halfspace specs of mixed kinds, half of them in draw order,
    the sub-spec of the first halfspace_prefix(spec) columns draws those
    columns and the labels bit for bit."""
    rng = np.random.default_rng(11)
    used = 0
    for t in range(200):
        d = int(rng.integers(2, 9))
        kinds = [LAW_KINDS[i] for i in rng.integers(0, len(LAW_KINDS), d)]
        if t % 2:
            kinds.sort(key=LAW_KINDS.index)
        laws = tuple(CoordinateLaw(k, {"v": 1.2} if k == GAUSSIAN_MIXTURE_SYMMETRIC else {})
                     for k in kinds)
        w = np.zeros(d)
        w[rng.integers(d)] = rng.choice([-2.0, 0.5, 3.0])
        spec = DistributionSpec(laws, rng.uniform(0.5, 2.0, d), LabelModel("halfspace", w=w))
        j = halfspace_prefix(spec)
        if j is None:
            continue
        used += 1
        sub = DistributionSpec(laws[:j], spec.variances[:j], LabelModel("halfspace", w=w[:j]))
        full, part = sample(spec, 20, seed=5, stream=3), sample(sub, 20, seed=5, stream=3)
        assert part.points.tobytes() == np.ascontiguousarray(full.points[:, :j]).tobytes()
        assert part.labels.tobytes() == full.labels.tobytes()
    assert used >= 50


@pytest.mark.parametrize("kind", [GAUSSIAN, RADEMACHER])
def test_sampler_memory_beyond_output_is_bounded(kind):
    """Beyond its output, sampling 1000 points in d=4000 allocates under 8 MB;
    a temporary the size of the sample would take 32 MB."""
    d, m = 4000, 1000
    spec = DistributionSpec(laws=(CoordinateLaw(kind),) * d, variances=np.ones(d),
                            label_model=LabelModel("halfspace", w=np.ones(d)))
    tracemalloc.start()
    try:
        S = sample(spec, m, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - S.points.nbytes - S.labels.nbytes < 8 * 2**20


class TestLabels:
    def test_halfspace_sign_convention(self):
        w = np.array([1.0, 0.0])
        spec = gaussian_spec([0.0, 1.0], label=LabelModel("halfspace", w=w))
        S = sample(spec, 100, seed=3)
        # first coordinate is identically zero: sign(0) := +1
        assert np.all(S.labels == 1.0)

    def test_halfspace_consistency(self):
        w = np.array([0.3, -0.8])
        spec = gaussian_spec([2.0, 1.0], label=LabelModel("halfspace", w=w))
        S = sample(spec, 500, seed=3)
        expected = np.where(S.points @ w >= 0, 1.0, -1.0)
        assert np.array_equal(S.labels, expected)

    def test_coin_balance(self):
        spec = gaussian_spec([1.0], label=LabelModel("coin", p=0.5))
        S = sample(spec, 20_000, seed=3)
        assert abs(S.labels.mean()) < 0.05

    def test_flip_rate(self):
        w = np.array([1.0])
        clean = gaussian_spec([1.0], label=LabelModel("halfspace", w=w))
        noisy = gaussian_spec([1.0],
                              label=LabelModel("halfspace_with_flip", w=w, flip=0.2))
        a = sample(clean, 20_000, seed=3)
        b = sample(noisy, 20_000, seed=3)
        assert np.mean(a.labels != b.labels) == pytest.approx(0.2, abs=0.02)

    def test_mixture_component_label(self):
        spec = paper_example("gaussian_mixture", d=3, v=6.0)
        S = sample(spec, 2000, seed=7)
        # components are far apart at v=6: label must match the sign of coord 0
        assert np.mean(S.labels == np.sign(S.points[:, 0])) > 0.99


class TestRelativeMoments:
    def test_registry(self):
        assert LAW_KINDS == (GAUSSIAN, RADEMACHER, UNIFORM_SYMMETRIC,
                             GAUSSIAN_MIXTURE_SYMMETRIC)
        for kind in LAW_KINDS:
            assert relative_moment(kind) == 1.0

    def test_unknown_kind(self):
        with pytest.raises(DistSpecError):
            relative_moment("cauchy")

    def test_mgf_domination_closed_forms(self):
        # E[exp(tX)] <= exp(rho^2 var t^2 / 2) with rho = 1, unit variance
        for t in np.logspace(-2, 1, 25):
            assert math.exp(t * t / 2) <= math.exp(t * t / 2) * (1 + 1e-12)  # gaussian
            assert math.cosh(t) <= math.exp(t * t / 2) * (1 + 1e-12)  # rademacher
            a = math.sqrt(3.0)
            assert math.sinh(t * a) / (t * a) <= math.exp(t * t / 2) * (1 + 1e-12)
            v = 2.0  # mixture normalized to unit variance
            s = 1.0 / math.sqrt(1 + v * v)
            assert (math.cosh(t * v * s) * math.exp(t * t * s * s / 2)
                    <= math.exp(t * t / 2) * (1 + 1e-12))

    @pytest.mark.parametrize("kind,params", [
        (GAUSSIAN, {}),
        (RADEMACHER, {}),
        (UNIFORM_SYMMETRIC, {}),
        (GAUSSIAN_MIXTURE_SYMMETRIC, {"v": 3.0}),
    ])
    def test_mgf_empirical(self, kind, params):
        spec = DistributionSpec(laws=(CoordinateLaw(kind, params),),
                                variances=np.array([1.0]),
                                label_model=LabelModel("coin", p=0.5))
        x = sample(spec, 200_000, seed=31).points[:, 0]
        rho = relative_moment(kind)
        for t in np.logspace(-2, 0.5, 8):
            vals = np.exp(t * x)
            emp = float(np.mean(vals))
            se = float(np.std(vals)) / math.sqrt(x.size)
            assert math.log(emp) <= rho * rho * t * t / 2 + 3 * se


class TestPaperExamples:
    def test_spiky_spectrum_and_k(self):
        spec = paper_example("spiky", d=1001)
        ev = spec.spectrum().eigenvalues
        assert ev[0] == 1000.0
        assert np.allclose(ev[1:], 0.001)
        assert k_gamma(spec.spectrum(), 1.0).k == 1

    @pytest.mark.parametrize("d", [10, 21, 40])
    def test_bernoulli_k(self, d):
        spec = paper_example("bernoulli", d=d)
        assert k_gamma(spec.spectrum(), 1.0).k == math.ceil(d / 2)

    @pytest.mark.parametrize("v", [2.0, 4.0, 8.0])
    def test_mixture_k(self, v):
        spec = paper_example("gaussian_mixture", d=100, v=v)
        assert k_gamma(spec.spectrum(), v / 2).k == math.ceil(100 / (1 + v * v / 4))

    def test_bernoulli_values_are_signs(self):
        S = sample(paper_example("bernoulli", d=6), 100, seed=1)
        assert np.all(np.abs(S.points) == 1.0)
        assert np.array_equal(S.labels, S.points[:, 0])

    def test_invalid_params(self):
        with pytest.raises(DistSpecError):
            paper_example("gaussian_mixture", d=10)
        with pytest.raises(DistSpecError):
            paper_example("unknown", d=10)

    @pytest.mark.parametrize("name, d, v", [
        ("bernoulli", 8.0, None), ("bernoulli", True, None), ("bernoulli", 1, None),
        ("gaussian_mixture", 8, True), ("gaussian_mixture", 8, "1"),
        ("gaussian_mixture", 8, math.nan), ("gaussian_mixture", 8, math.inf),
        ("gaussian_mixture", 8, 0), ("spiky", 8, -1.0)])
    def test_rejects_bad_d_or_v(self, name, d, v):
        with pytest.raises(DistSpecError):
            paper_example(name, d, v=v)

    def test_accepts_numpy_scalars(self):
        spec = paper_example("gaussian_mixture", np.int64(4), v=np.float32(2.0))
        assert spec.to_json() == paper_example("gaussian_mixture", 4, v=2.0).to_json()


class TestSerialization:
    def test_json_roundtrip(self):
        spec = paper_example("gaussian_mixture", d=4, v=2.0)
        back = DistributionSpec.from_json(spec.to_json())
        assert back.to_json() == spec.to_json()
        a = sample(spec, 10, seed=2)
        b = sample(back, 10, seed=2)
        assert np.array_equal(a.points, b.points)

    def test_json_roundtrip_with_rotation(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        spec = DistributionSpec(laws=(CoordinateLaw(GAUSSIAN),) * 2,
                                variances=np.array([2.0, 1.0]), rotation=q,
                                label_model=LabelModel("halfspace", w=[1.0, 0.0]))
        back = DistributionSpec.from_json(spec.to_json())
        assert back.to_json() == spec.to_json()


def test_spec_validation():
    with pytest.raises(DistSpecError):
        DistributionSpec(laws=(CoordinateLaw(GAUSSIAN),), variances=[1.0, 2.0],
                         label_model=LabelModel("coin", p=0.5))
    with pytest.raises(DistSpecError):
        LabelModel("coin", p=1.5)
    for params in ({}, {"v": 0.0}, {"v": -1.0}, {"v": math.inf}, {"v": "1"}, {"v": True}):
        with pytest.raises(DistSpecError):
            CoordinateLaw(GAUSSIAN_MIXTURE_SYMMETRIC, params)
    for w in ([1.0, math.nan], [0.0, 0.0], [1.0], [1.0, 0.0, 0.0]):
        with pytest.raises(DistSpecError):
            gaussian_spec([1.0, 1.0], label=LabelModel("halfspace", w=w))
    with pytest.raises(DistSpecError):
        gaussian_spec([1.0, 1.0], label=LabelModel("mixture_component"))
    for kind, p in (("coin", 0.5), ("mixture_component", None)):
        with pytest.raises(DistSpecError):
            LabelModel(kind, w=[1.0, 0.0], p=p)
    for bad in ([1.0, -1.0], [1.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(DistSpecError):
            gaussian_spec(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_labeled_sample_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="sample matrix entries must be finite"):
        LabeledSample(np.array([[1.0, bad], [0.0, 1.0]]), [1.0, -1.0])


def test_labeled_sample_accepts_finite_points_whose_sum_overflows():
    S = LabeledSample(np.full((2, 2), 1e308), [1.0, -1.0])
    assert np.all(S.points == 1e308)
