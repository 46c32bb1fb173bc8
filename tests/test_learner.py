import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from margin_spectra import learner
from margin_spectra.dist import (
    GAUSSIAN,
    GAUSSIAN_MIXTURE_SYMMETRIC,
    RADEMACHER,
    UNIFORM_SYMMETRIC,
    CoordinateLaw,
    DistributionSpec,
    DistSpecError,
    LabelModel,
    halfspace_prefix,
    paper_example,
    sample,
)
from margin_spectra.learner import (
    LSTAR_CHUNK,
    LSTAR_STREAM,
    DegenerateSampleError,
    ExactCapError,
    LabeledSample,
    NotShatteredError,
    adversarial_minimizer,
    empirical_sample_complexity,
    estimate_lstar,
    generative_nearest_mean,
    learning_curve,
    margin_error_minimize,
    margin_loss,
    read_curve_csv,
    write_curve_csv,
)
from margin_spectra.optim import SINGULARITY_RATIO, UNIT_BALL_TOL
import oracles
from oracles import (
    brute_force_min_norm,
    enumerating_adversarial_minimizer,
    full_draw_lstar,
    full_hinge_subgradient,
    per_size_learning_curve,
)


def min_margin_loss_oracle(S, gamma):
    """Oracle: try every satisfaction pattern via brute-force min-norm
    solves; return the smallest achievable fraction of unmet margins."""
    best = 1.0
    for size in range(S.m, -1, -1):
        if 1.0 - size / S.m >= best:
            continue
        for pattern in combinations(range(S.m), size):
            idx = list(pattern)
            if not idx:
                best = min(best, 1.0)
                continue
            rows = S.labels[idx, None] * S.points[idx]
            w = brute_force_min_norm(rows, np.full(len(idx), gamma))
            if w is not None and w @ w <= 1.0 + UNIT_BALL_TOL:
                best = min(best, 1.0 - size / S.m)
                break
    return best


def xor_sample():
    pts = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    return LabeledSample(pts, np.array([1.0, 1.0, -1.0, -1.0]))


class TestMarginLoss:
    def test_explicit_counts(self):
        S = LabeledSample(np.array([[2.0], [0.5], [-1.0]]), [1.0, 1.0, -1.0])
        w = np.array([1.0])
        assert margin_loss(w, S, 1.0) == pytest.approx(1 / 3)
        assert margin_loss(w, S, 0.25) == 0.0
        assert margin_loss(w, S, 3.0) == 1.0

    def test_exact_margin_counts_as_satisfied(self):
        S = LabeledSample(np.array([[1.0]]), [1.0])
        assert margin_loss(np.array([1.0]), S, 1.0) == 0.0

    def test_non_decreasing_in_gamma(self):
        rng = np.random.default_rng(2)
        S = LabeledSample(rng.standard_normal((20, 3)),
                          np.where(rng.random(20) < 0.5, 1.0, -1.0))
        w = rng.standard_normal(3)
        losses = [margin_loss(w, S, g) for g in np.linspace(0.01, 5, 40)]
        assert all(losses[i] <= losses[i + 1] for i in range(len(losses) - 1))


class TestExactLearner:
    def test_separable_sample_zero_loss(self):
        S = LabeledSample(np.array([[2.0, 0], [-2.0, 0]]), [1.0, -1.0])
        out = margin_error_minimize(S, 1.0)
        assert out.train_margin_loss == 0.0
        assert out.optimality_certified
        assert np.linalg.norm(out.w) <= 1 + 1e-9

    def test_xor_matches_oracle(self):
        S = xor_sample()
        out = margin_error_minimize(S, 0.5)
        assert out.train_margin_loss == pytest.approx(min_margin_loss_oracle(S, 0.5))
        assert out.train_margin_loss == pytest.approx(0.5)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m = int(rng.integers(1, 8))
            d = int(rng.integers(1, 4))
            S = LabeledSample(rng.standard_normal((m, d)) * 1.5,
                              np.where(rng.random(m) < 0.5, 1.0, -1.0))
            gamma = 10.0 ** rng.uniform(-0.5, 0.5)
            out = margin_error_minimize(S, gamma)
            assert out.train_margin_loss == pytest.approx(
                min_margin_loss_oracle(S, gamma))

    def test_cap(self):
        rng = np.random.default_rng(1)
        S = LabeledSample(rng.standard_normal((17, 2)), np.ones(17))
        with pytest.raises(ExactCapError):
            margin_error_minimize(S, 1.0)

    def test_unknown_mode(self):
        S = LabeledSample(np.array([[1.0]]), [1.0])
        with pytest.raises(ValueError):
            margin_error_minimize(S, 1.0, mode="other")

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, True])
    def test_rejects_bad_gamma(self, mode, gamma):
        with pytest.raises(ValueError, match="gamma must be positive"):
            margin_error_minimize(xor_sample(), gamma, mode=mode)


class TestHeuristicLearner:
    def test_never_beats_exact(self):
        rng = np.random.default_rng(9)
        for i in range(20):
            m = int(rng.integers(2, 10))
            d = int(rng.integers(1, 4))
            S = LabeledSample(rng.standard_normal((m, d)) * 2,
                              np.where(rng.random(m) < 0.5, 1.0, -1.0))
            gamma = 10.0 ** rng.uniform(-0.5, 0.5)
            exact = margin_error_minimize(S, gamma, mode="exact")
            heur = margin_error_minimize(S, gamma, mode="heuristic", seed=i)
            assert heur.train_margin_loss >= exact.train_margin_loss - 1e-12
            assert not heur.optimality_certified

    def test_often_matches_exact(self):
        rng = np.random.default_rng(10)
        matches = 0
        for i in range(20):
            S = LabeledSample(rng.standard_normal((8, 3)) * 2,
                              np.where(rng.random(8) < 0.5, 1.0, -1.0))
            exact = margin_error_minimize(S, 1.0, mode="exact")
            heur = margin_error_minimize(S, 1.0, mode="heuristic", seed=i)
            matches += heur.train_margin_loss == exact.train_margin_loss
        assert matches >= 15

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(11)
        S = LabeledSample(rng.standard_normal((12, 3)),
                          np.where(rng.random(12) < 0.5, 1.0, -1.0))
        a = margin_error_minimize(S, 1.0, mode="heuristic", seed=3)
        b = margin_error_minimize(S, 1.0, mode="heuristic", seed=3)
        assert np.array_equal(a.w, b.w)

    @staticmethod
    def halfspace_sample(seed, m, d):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d))
        return LabeledSample(X, np.where(X @ rng.standard_normal(d) >= 0, 1.0, -1.0))

    @staticmethod
    def hinge_key(w, S, gamma):
        margins = S.labels * (S.points @ w)
        return (float(np.mean(learner._below_margin(margins, gamma))),
                float(np.mean(np.maximum(0.0, gamma - margins))))

    @pytest.mark.parametrize("seed, reached_in_restart_0, reached", [
        (0, True, True),     # separable at the margin from the first restart
        (280, False, True),  # key (0, 0) only in a later restart
        (25, False, False),  # key (0, 0) never
    ])
    def test_early_stop_matches_full_search(self, monkeypatch, seed, reached_in_restart_0,
                                            reached):
        """Stopping at key (0, 0) returns the bits of the search that runs every restart."""
        S, gamma = self.halfspace_sample(seed, 6, 5), 0.3
        want = full_hinge_subgradient(S, gamma, seed)
        assert (self.hinge_key(want, S, gamma) == (0.0, 0.0)) == reached
        monkeypatch.setattr(oracles, "HINGE_RESTARTS", 1)
        first = full_hinge_subgradient(S, gamma, seed)
        assert (self.hinge_key(first, S, gamma) == (0.0, 0.0)) == reached_in_restart_0
        got = margin_error_minimize(S, gamma, mode="heuristic", seed=seed)
        assert got.w.tobytes() == want.tobytes()
        assert got.train_margin_loss == margin_loss(want, S, gamma)

    def test_early_stop_matches_full_search_on_random_samples(self):
        """Samples of the three kinds, and the m=8, d=3, gamma=1.5 random-label
        shape, where no fit reaches key (0, 0)."""
        rng = np.random.default_rng(12)
        for i in range(16):
            if i % 2:
                S, gamma = self.halfspace_sample(1000 + i, 6, 5), 0.3
            else:
                S, gamma = LabeledSample(rng.standard_normal((8, 3)),
                                         rng.choice([-1.0, 1.0], size=8)), 1.5
            want = full_hinge_subgradient(S, gamma, i)
            got = margin_error_minimize(S, gamma, mode="heuristic", seed=i)
            assert got.w.tobytes() == want.tobytes()
            assert got.train_margin_loss == margin_loss(want, S, gamma)


class TestAdversarial:
    def test_orthogonal_pair_closed_form(self):
        train = LabeledSample(np.array([[math.sqrt(2), 0.0]]), [1.0])
        w = adversarial_minimizer(train, np.array([[0.0, math.sqrt(2)]]),
                                  np.array([1.0]), 1.0)
        assert np.allclose(w, [math.sqrt(2) / 2, -math.sqrt(2) / 2])
        assert margin_loss(w, train, 1.0) == 0.0

    def test_misclassifies_all_test_points(self):
        rng = np.random.default_rng(4)
        d = 30
        train_pts = rng.standard_normal((5, d)) * math.sqrt(d)
        test_pts = rng.standard_normal((5, d)) * math.sqrt(d)
        train = LabeledSample(train_pts, np.where(rng.random(5) < 0.5, 1.0, -1.0))
        test_labels = np.where(rng.random(5) < 0.5, 1.0, -1.0)
        w = adversarial_minimizer(train, test_pts, test_labels, 0.5)
        assert margin_loss(w, train, 0.5) == 0.0
        assert np.linalg.norm(w) <= 1 + 1e-8
        pred = np.where(test_pts @ w >= 0, 1.0, -1.0)
        assert np.all(pred != test_labels)

    def test_duplicate_rows_raise(self):
        train = LabeledSample(np.array([[1.0, 0.0]]), [1.0])
        with pytest.raises(NotShatteredError):
            adversarial_minimizer(train, np.array([[1.0, 0.0]]), np.array([1.0]), 1.0)

    @staticmethod
    def outcome(minimizer, train, test_points, test_labels, gamma):
        try:
            return minimizer(train, test_points, test_labels, gamma).tobytes()
        except NotShatteredError as e:
            return str(e)

    def instances(self):
        rng = np.random.default_rng(12)
        for _ in range(60):  # random sets, shattered or not
            m_train, m_test = rng.integers(1, 6, size=2)
            d = int(rng.integers(2, 13))
            pts = rng.standard_normal((m_train + m_test, d)) * math.sqrt(d)
            yield pts, rng.choice([-1.0, 1.0], m_train + m_test), 10.0 ** rng.uniform(-1, 0.5)
        h = np.array([[1.0, 1.0], [1.0, -1.0]])
        h8 = np.kron(np.kron(h, h), h)
        for gamma in (0.5, 1.0, 1.0 + 1e-12, 2.0):  # exact ties lambda_min = m at gamma 1
            yield h8, np.array([1.0, -1.0] * 4), gamma
            yield h8[:5], np.array([1.0, 1.0, -1.0, 1.0, -1.0]), gamma
        for scale in (1e-3, 1e3, 1e5, 1e6):  # ill-scaled rows
            pts = np.diag([scale, 1.0, 1.0, 0.5]) @ rng.standard_normal((4, 6))
            for gamma in (0.01, 0.3):
                yield pts, np.array([1.0, -1.0, 1.0, 1.0]), gamma

    def test_matches_enumerating_oracle(self):
        for pts, y, gamma in self.instances():
            k = max(1, len(y) // 2)
            args = (LabeledSample(pts[:k], y[:k]), pts[k:], y[k:], gamma)
            assert self.outcome(adversarial_minimizer, *args) == self.outcome(
                enumerating_adversarial_minimizer, *args)

    def test_near_singular_gram_passing_eigenvalue_test(self):
        # lambda_min = 1 >= 2 gamma^2, yet the eigenvalue ratio 1e-12 is below
        # SINGULARITY_RATIO: the same not-shattered verdict as the enumeration
        train = LabeledSample(np.array([[1e6, 0.0]]), [1.0])
        args = (train, np.array([[0.0, 1.0]]), np.array([1.0]), 0.1)
        assert 1e-12 <= SINGULARITY_RATIO
        with pytest.raises(NotShatteredError, match="worst value inf"):
            adversarial_minimizer(*args)
        assert self.outcome(adversarial_minimizer, *args) == self.outcome(
            enumerating_adversarial_minimizer, *args)

    def test_eigenvalue_test_skips_enumeration(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated although the eigenvalue test holds")

        monkeypatch.setattr(learner, "shatter_at_origin", no_enumeration)
        train = LabeledSample(2.0 * np.eye(4)[:2], [1.0, -1.0])
        w = adversarial_minimizer(train, 2.0 * np.eye(4)[2:], np.array([1.0, 1.0]), 1.0)
        assert np.array_equal(np.sign(2.0 * np.eye(4)[2:] @ w), [-1.0, -1.0])

    @pytest.mark.parametrize("test_labels", [[0.5, 3.0], [1.0], [1.0, -1.0, 1.0]])
    def test_rejects_bad_test_labels(self, test_labels):
        train = LabeledSample(2.0 * np.eye(4)[:2], [1.0, -1.0])
        with pytest.raises(ValueError, match="labels"):
            adversarial_minimizer(train, 2.0 * np.eye(4)[2:], np.array(test_labels), 1.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, True])
    def test_rejects_non_positive_gamma(self, gamma):
        train = LabeledSample(np.array([[1.0, 0.0]]), [1.0])
        with pytest.raises(ValueError, match="gamma must be positive"):
            adversarial_minimizer(train, np.array([[0.0, 1.0]]), np.array([1.0]), gamma)


class TestGenerative:
    def test_two_cluster_rule(self):
        S = LabeledSample(np.array([[2.0, 0], [4.0, 0], [-2.0, 0], [-4.0, 0]]),
                          [1.0, 1.0, -1.0, -1.0])
        rule = generative_nearest_mean(S)
        assert np.allclose(rule.w, [1.0, 0.0])
        assert np.allclose(rule.midpoint, [0.0, 0.0])
        assert np.array_equal(rule.predict(np.array([[0.1, 5.0], [-0.1, 5.0]])),
                              [1.0, -1.0])

    def test_missing_class(self):
        with pytest.raises(DegenerateSampleError):
            generative_nearest_mean(LabeledSample(np.eye(2), [1.0, 1.0]))

    def test_coinciding_means(self):
        S = LabeledSample(np.array([[1.0], [-1.0], [1.0], [-1.0]]),
                          [1.0, 1.0, -1.0, -1.0])
        with pytest.raises(DegenerateSampleError):
            generative_nearest_mean(S)


def lstar_spec(layout: str, support, label="halfspace", rotate=False) -> DistributionSpec:
    """Coordinates of kinds G(aussian), R(ademacher), U(niform) and M(ixture)
    in `layout` order, labelled by a halfspace with w non-zero on `support`."""
    kinds = {"G": GAUSSIAN, "R": RADEMACHER, "U": UNIFORM_SYMMETRIC,
             "M": GAUSSIAN_MIXTURE_SYMMETRIC}
    d = len(layout)
    laws = tuple(CoordinateLaw(kinds[c], {"v": 1.5} if c == "M" else {}) for c in layout)
    w = np.zeros(d)
    w[list(support)] = np.linspace(1.5, -0.7, len(support))
    rotation = None
    if rotate:
        rotation, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((d, d)))
    return DistributionSpec(
        laws=laws, variances=np.linspace(0.5, 2.0, d), rotation=rotation,
        label_model=LabelModel(label, w=w, flip=0.2 if label != "halfspace" else None))


class TestLstar:
    def test_halfspace_is_margin_loss_of_true_direction(self):
        spec = DistributionSpec(
            laws=(CoordinateLaw("gaussian"),) * 2,
            variances=np.ones(2),
            label_model=LabelModel("halfspace", w=[1.0, 0.0]))
        val = estimate_lstar(spec, 0.5, seed=3)
        # P[|N(0,1)| < 0.5] = 2 Phi(0.5) - 1
        expected = 2 * (0.5 * (1 + math.erf(0.5 / math.sqrt(2)))) - 1
        assert val == pytest.approx(expected, abs=0.01)

    def test_coin_labels_give_none(self):
        spec = DistributionSpec(laws=(CoordinateLaw("gaussian"),),
                                variances=np.ones(1),
                                label_model=LabelModel("coin", p=0.5))
        assert estimate_lstar(spec, 1.0, seed=1) is None

    def test_mixture_axis_small_for_large_v(self):
        spec = paper_example("gaussian_mixture", d=4, v=8.0)
        assert estimate_lstar(spec, 1.0, seed=1) < 0.05

    def test_mixture_axis_is_the_mixture_coordinate(self):
        # on the axis of the mixture at index 3 the margin is v + z, z ~ N(0, 1):
        # lstar = P[4 + z < 2] = Phi(-2)
        v = 4.0
        laws = [CoordinateLaw("gaussian")] * 6
        laws[3] = CoordinateLaw("gaussian_mixture_symmetric", {"v": v})
        variances = np.ones(6)
        variances[3] = 1.0 + v * v
        spec = DistributionSpec(laws=tuple(laws), variances=variances,
                                label_model=LabelModel("mixture_component"))
        expected = 0.5 * (1 + math.erf(-2.0 / math.sqrt(2)))
        assert estimate_lstar(spec, 2.0, seed=1, draws=20_000) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, True])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive"):
            estimate_lstar(paper_example("bernoulli", d=8), gamma, seed=1, draws=10)

    def test_chunked_draws_match_one_draw(self):
        rotation, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))
        flipped = DistributionSpec(
            laws=(CoordinateLaw("uniform_symmetric"),) * 3,
            variances=np.array([2.0, 1.0, 0.5]), rotation=rotation,
            label_model=LabelModel("halfspace_with_flip", w=[0.6, -0.8, 0.0], flip=0.1))
        draws = 2 * LSTAR_CHUNK + 17
        for spec, w in ((flipped, flipped.label_model.w / np.linalg.norm([0.6, -0.8, 0.0])),
                        (paper_example("gaussian_mixture", d=5, v=1.0), np.eye(5)[0])):
            one_draw = sample(spec, draws, seed=3, stream=LSTAR_STREAM)
            assert estimate_lstar(spec, 0.8, seed=3, draws=draws) == margin_loss(w, one_draw, 0.8)

    @pytest.mark.parametrize("spec,j", [
        (lstar_spec("GGGGGG", [0]), 1),  # the single non-zero first
        (lstar_spec("GGGGGG", [2]), 3),  # ... in the middle
        (lstar_spec("GGGGGG", [5]), None),  # ... last: nothing to leave out
        (lstar_spec("GGGRRR", [1]), 2),  # G|R
        (lstar_spec("RRRGGG", [1]), None),  # R|G: the Gaussians are drawn first
        (lstar_spec("UGGGGG", [0]), None),  # ... as they are before a uniform
        (lstar_spec("RRRUUU", [2]), 3),  # R|U, odd Rademacher count below j
        (lstar_spec("RRRRUU", [2]), 4),  # odd count, next column Rademacher: pair it
        (lstar_spec("RRRRUU", [1]), 2),  # even Rademacher count below j
        (lstar_spec("UGUGUG", [2]), None),  # kinds interleaved
        (lstar_spec("GGGMMM", [2]), 3),  # G|mixture
        (lstar_spec("MGGGGG", [0]), None),  # mixture before the Gaussians
        (lstar_spec("GGGGGG", [0, 3]), None),  # two non-zeros
        (lstar_spec("GGGGGG", [0], rotate=True), None),
        (lstar_spec("GGGGGG", [0], label="halfspace_with_flip"), None),
        (paper_example("gaussian_mixture", d=5, v=1.0), None),
        (paper_example("spiky", d=201), 1),
        (paper_example("bernoulli", d=20), 2),
    ])
    def test_matches_full_draw_oracle(self, spec, j):
        """Only the leading columns halfspace_prefix names are drawn, and the
        estimate has the bits of the full draw whether it uses them or not."""
        assert halfspace_prefix(spec) == j
        draws = 2 * LSTAR_CHUNK + 17
        want = full_draw_lstar(spec, 0.8, seed=3, draws=draws)
        assert estimate_lstar(spec, 0.8, seed=3, draws=draws) == want
        assert estimate_lstar(spec, 0.8, seed=np.int64(3), draws=draws) == want

    def test_stock_examples_draw_their_prefix(self, monkeypatch):
        """Spiky d=201 draws one column and Bernoulli d=20 two, one raw word."""
        widths, draw = [], learner._sample_rows

        def recording(spec, *args):
            widths.append(spec.d)
            return draw(spec, *args)

        monkeypatch.setattr(learner, "_sample_rows", recording)
        estimate_lstar(paper_example("spiky", d=201), 1.0, seed=1, draws=10)
        estimate_lstar(paper_example("bernoulli", d=20), 0.5, seed=1, draws=10)
        assert widths == [1, 2]


class TestLearningCurve:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, True])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive"):
            learning_curve(paper_example("bernoulli", d=8), gamma, [4], trials=2,
                           learner_kind="erm_exact", seed=1)

    def test_coin_labels_error_half(self):
        spec = DistributionSpec(laws=(CoordinateLaw("gaussian"),) * 3,
                                variances=np.ones(3),
                                label_model=LabelModel("coin", p=0.5))
        curve = learning_curve(spec, 0.5, [8, 12], trials=30,
                               learner_kind="erm_exact", seed=6)
        for e in curve.entries:
            assert e.mean_test_error == pytest.approx(0.5, abs=0.08)

    def test_learnable_halfspace_improves(self):
        spec = DistributionSpec(
            laws=(CoordinateLaw("gaussian"),) * 2,
            variances=np.array([4.0, 1.0]),
            label_model=LabelModel("halfspace", w=[1.0, 0.0]))
        curve = learning_curve(spec, 0.5, [2, 12], trials=30,
                               learner_kind="erm_exact", seed=6)
        assert curve.entries[-1].mean_test_error < curve.entries[0].mean_test_error
        assert curve.entries[-1].mean_test_error < 0.15

    def test_worker_determinism(self):
        spec = paper_example("bernoulli", d=8)
        a = learning_curve(spec, 1.0, [4, 8], trials=10,
                           learner_kind="generative", seed=2, workers=1)
        b = learning_curve(spec, 1.0, [4, 8], trials=10,
                           learner_kind="generative", seed=2, workers=4)
        assert a == b

    def test_generative_single_class_draws_fall_back_to_majority(self):
        # constant +1 labels guarantee every training draw is single-class;
        # the curve harness must degrade to majority-class prediction
        spec = DistributionSpec(
            laws=(CoordinateLaw("gaussian"),) * 2,
            variances=np.ones(2),
            label_model=LabelModel("coin", p=1.0))
        curve = learning_curve(spec, 1.0, [4], trials=5,
                               learner_kind="generative", seed=1)
        assert curve.entries[0].mean_test_error == 0.0

    def test_unknown_learner(self):
        spec = paper_example("bernoulli", d=4)
        with pytest.raises(ValueError):
            learning_curve(spec, 1.0, [4], trials=2, learner_kind="svm", seed=1)

    COIN = DistributionSpec(laws=(CoordinateLaw("gaussian"),) * 12, variances=np.ones(12),
                            label_model=LabelModel("coin", p=0.5))

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("kind, spec, gamma, grid, trials", [
        ("erm_exact", COIN, 2.0, [3, 6], 4),
        ("erm_heuristic", COIN, 1.0, [8, 4, 6], 3),
        ("adversarial", COIN, 0.1, [2, 4, 4], 3),
        ("generative", paper_example("gaussian_mixture", d=3, v=1.0), 1.0, [6, 2], 1),
    ])
    def test_matches_per_size_oracle(self, kind, spec, gamma, grid, trials, workers):
        """Prefixes of one draw per stream score every size as fresh draws do."""
        assert learning_curve(spec, gamma, grid, trials, kind, seed=7, workers=workers) == \
            per_size_learning_curve(spec, gamma, grid, trials, kind, seed=7, workers=workers)

    def test_one_trial_map_and_one_draw_per_stream(self, monkeypatch):
        maps, draws = [], []
        map_trials = learner.map_trials

        def counting_map(fn, trials, workers):
            maps.append(trials)
            return map_trials(fn, trials, workers)

        def counting_sample(spec, m, seed, stream=0):
            draws.append((m, stream))
            return sample(spec, m, seed, stream=stream)

        monkeypatch.setattr(learner, "map_trials", counting_map)
        monkeypatch.setattr(learner, "sample", counting_sample)
        learning_curve(self.COIN, 1.0, [4, 8, 6], trials=3, learner_kind="generative",
                       seed=1, workers=2)
        assert maps == [3]
        assert sorted(draws) == [(8, s) for s in range(6)]

    def test_estimates_no_lstar(self, monkeypatch):
        def no_lstar(*args, **kwargs):
            raise AssertionError("learning_curve estimated L*")

        monkeypatch.setattr(learner, "estimate_lstar", no_lstar)
        learning_curve(paper_example("bernoulli", d=8), 1.0, [4, 8], trials=2,
                       learner_kind="erm_heuristic", seed=1)

    @pytest.mark.parametrize("grid", [[4, 0], [-1, 4], [0]])
    def test_grid_size_below_one_raises_before_drawing(self, grid, monkeypatch):
        monkeypatch.setattr(learner, "sample", None)  # any draw would fail differently
        with pytest.raises(DistSpecError, match="m_grid entry must be an integer >= 1"):
            learning_curve(self.COIN, 1.0, grid, trials=2, learner_kind="generative", seed=1)

    @pytest.mark.parametrize("grid", [[True, 2], [2.0, 3], [4, np.float64(8)], [4, "8"]])
    def test_grid_entry_not_an_integer_raises_before_drawing(self, grid, monkeypatch):
        monkeypatch.setattr(learner, "sample", None)  # any draw would fail differently
        with pytest.raises(DistSpecError, match="m_grid entry must be an integer >= 1"):
            learning_curve(self.COIN, 1.0, grid, trials=2, learner_kind="generative", seed=1)

    @pytest.mark.parametrize("kind, grid, error, message", [
        ("svm", [4], ValueError, "learner must be one of erm_exact, "),
        ("erm_exact", [4, 17], ExactCapError,
         r"largest m_grid entry with learner erm_exact must be an integer in \[1, 17\), got 17"),
    ], ids=["unknown_kind", "exact_grid_above_cap"])
    def test_bad_learner_or_exact_grid_raises_before_drawing(self, kind, grid, error, message,
                                                             monkeypatch):
        monkeypatch.setattr(learner, "sample", None)  # any draw would fail differently
        with pytest.raises(error, match=message):
            learning_curve(self.COIN, 1.0, grid, trials=2, learner_kind=kind, seed=1)

    @pytest.mark.parametrize("grid, trials", [([4], 0), ([4], -1), ([], 2), (8, 2)])
    def test_no_trials_or_empty_grid_raises(self, grid, trials):
        with pytest.raises(ValueError, match=r"trials must be an integer >= 1|"
                                             r"m_grid must be non-empty"):
            learning_curve(self.COIN, 1.0, grid, trials=trials, learner_kind="generative",
                           seed=1)


class TestSampleComplexity:
    def make_curve(self, entries):
        from margin_spectra.learner import CurveEntry, LearningCurve
        return LearningCurve(
            gamma=1.0,
            entries=tuple(CurveEntry(m=m, mean_test_error=err, std_error=0.0,
                                     trials=10) for m, err in entries),
            learner_kind="erm_exact", seed=0)

    def test_threshold_scan(self):
        curve = self.make_curve([(10, 0.30), (20, 0.10)])
        assert empirical_sample_complexity(curve, 0.02, 0.1) == 20

    def test_smallest_m_in_any_grid_order(self):
        curve = self.make_curve([(8, 0.1), (4, 0.1), (6, 0.3), (4, 0.1)])
        assert empirical_sample_complexity(curve, 0.0, 0.15) == 4

    def test_not_reached(self):
        curve = self.make_curve([(10, 0.30), (20, 0.25)])
        assert empirical_sample_complexity(curve, 0.02, 0.1) is None

    def test_requires_lstar(self):
        curve = self.make_curve([(10, 0.30)])
        for lstar in (1.5, -0.1, math.nan, True, None):
            with pytest.raises(ValueError, match=r"lstar must be a number in \[0, 1\]"):
                empirical_sample_complexity(curve, lstar, 0.1)

    def test_rejects_bad_epsilon(self):
        curve = self.make_curve([(10, 0.30)])
        with pytest.raises(ValueError):
            empirical_sample_complexity(curve, 0.02, 0.0)


def test_curve_csv_determinism(tmp_path):
    spec = paper_example("bernoulli", d=6)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_curve_csv(p1, learning_curve(spec, 1.0, [4, 6], trials=5,
                                       learner_kind="erm_heuristic", seed=3))
    write_curve_csv(p2, learning_curve(spec, 1.0, [4, 6], trials=5,
                                       learner_kind="erm_heuristic", seed=3,
                                       workers=3))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "m,mean_test_error,std_error,trials,learner_kind,gamma,seed"


def test_curve_csv_roundtrip(tmp_path):
    curve = TestSampleComplexity().make_curve([(4, 1 / 3), (8, 0.1 + 0.2)])
    curve = replace(curve, gamma=0.7, seed=2**63 - 1)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    assert read_curve_csv(path) == curve
    path.write_text(path.read_text().splitlines()[0] + "\n")
    assert read_curve_csv(path).entries == ()
