"""Margin-error-minimization learners and learning-curve harnesses.

The exact learner enumerates which training points are required to meet the
margin (largest subsets first) and tests each pattern by a min-norm
feasibility solve, so it is a true empirical margin-loss minimizer.  The
adversarial learner realizes the lower-bound construction: on a shattered
train+test set it interpolates exact margins +gamma on the training labels
and -gamma on the designated test labels, achieving zero training margin loss
while misclassifying every test point.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .checks import check_int, check_positive, check_unit
from .dist import (
    GAUSSIAN_MIXTURE_SYMMETRIC,
    DistributionSpec,
    DistSpecError,
    LabeledSample,
    LabelModel,
    _sample_rows,
    halfspace_prefix,
    sample,
)
from .optim import (
    UNIT_BALL_TOL,
    SingularGramError,
    min_norm_interpolator,
    solve_min_norm_ineq,
)
from .randmat import map_trials
from .shatter import lambda_min_sufficient, shatter_at_origin

EXACT_CAP = 16
MARGIN_TOL = 1e-9
LEARNER_KINDS = ("erm_exact", "erm_heuristic", "adversarial", "generative")
# Points per draw in estimate_lstar, which bounds its memory at LSTAR_CHUNK x d,
# and the stream its draws come from.
LSTAR_CHUNK = 4096
LSTAR_STREAM = 0x1057a7
# Restarts (the first from w = 0, the rest from random unit vectors) and
# iterations per restart of the hinge heuristic.
HINGE_RESTARTS = 10
HINGE_ITERS = 300


class ExactCapError(ValueError):
    """Exact mode is capped; use heuristic mode for larger samples."""


class NotShatteredError(RuntimeError):
    """Adversarial construction requires the combined set to be shattered."""


class DegenerateSampleError(ValueError):
    """Sample does not admit the requested learner (missing class, zero means)."""


@dataclass(frozen=True)
class LearnerOutput:
    w: np.ndarray
    train_margin_loss: float
    mode: str  # "exact" | "heuristic"
    optimality_certified: bool


@dataclass(frozen=True)
class CurveEntry:
    m: int
    mean_test_error: float
    std_error: float
    trials: int


@dataclass(frozen=True)
class LearningCurve:
    gamma: float
    entries: tuple
    learner_kind: str
    distribution_digest: str
    lstar: float | None  # margin-loss proxy of the known best separator, if any
    seed: int


def _below_margin(margins: np.ndarray, gamma: float) -> np.ndarray:
    """Which functional margins y <x, w> fall below gamma (tolerance
    MARGIN_TOL, so exact-margin points count as satisfied)."""
    return margins < gamma - MARGIN_TOL * max(1.0, gamma)


def margin_loss(w: np.ndarray, S: LabeledSample, gamma: float) -> float:
    """Fraction of points with functional margin below gamma."""
    return float(np.mean(_below_margin(S.labels * (S.points @ w), gamma)))


def _pattern_feasible(S: LabeledSample, pattern, gamma: float):
    """Min-norm w meeting margin gamma on the given index pattern, or None."""
    idx = list(pattern)
    rows = S.labels[idx, None] * S.points[idx]
    sol = solve_min_norm_ineq(rows, np.full(len(idx), gamma))
    return sol.w if sol.objective <= 1.0 + UNIT_BALL_TOL else None  # inf when infeasible


def margin_error_minimize(S: LabeledSample, gamma: float, mode: str = "exact",
                          seed: int = 0) -> LearnerOutput:
    """Unit-ball predictor minimizing the empirical margin loss at gamma."""
    check_positive("gamma", gamma)
    if mode == "exact":
        if S.m > EXACT_CAP:
            raise ExactCapError(
                f"exact mode capped at m={EXACT_CAP}, got {S.m}; use heuristic mode")
        for size in range(S.m, -1, -1):
            for pattern in combinations(range(S.m), size):
                w = _pattern_feasible(S, pattern, gamma)
                if w is not None:
                    nrm = float(np.linalg.norm(w))
                    if nrm > 0:
                        w = w / nrm  # scaling up never hurts satisfied margins
                    return LearnerOutput(w=w, train_margin_loss=margin_loss(w, S, gamma),
                                         mode="exact", optimality_certified=True)
        raise AssertionError("unreachable: empty pattern is always feasible")
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")
    w = _hinge_subgradient(S, gamma, seed)
    return LearnerOutput(w=w, train_margin_loss=margin_loss(w, S, gamma),
                         mode="heuristic", optimality_certified=False)


def _hinge_subgradient(S: LabeledSample, gamma: float, seed: int) -> np.ndarray:
    """Projected subgradient descent on the hinge-at-gamma surrogate.

    Keeps the best iterate seen (by 0-1 margin loss, then hinge value) across
    all restarts, comparing both the raw and unit-normalized iterate.  Both
    parts of the key are >= 0 and a candidate replaces the best only with a
    strictly smaller key, so once the best key is (0, 0) nothing can replace
    it: the search stops there, with the iterate a full search would return.
    """
    X, y, m = S.points, S.labels, S.m
    rng = np.random.default_rng([seed, 0x6d61725f])
    row_scale = float(np.mean(np.linalg.norm(X, axis=1))) or 1.0
    best_w, best_key = np.zeros(X.shape[1]), (math.inf, math.inf)

    def consider(w) -> bool:
        """Keep w or w / |w| if better; True once the best key is (0, 0)."""
        nonlocal best_w, best_key
        nrm = np.linalg.norm(w)
        for cand in (w, w / nrm) if nrm > 0 else (w,):
            margins = y * (X @ cand)
            key = (float(np.mean(_below_margin(margins, gamma))),
                   float(np.mean(np.maximum(0.0, gamma - margins))))
            if key < best_key:
                best_key, best_w = key, cand.copy()
                if best_key == (0.0, 0.0):
                    return True
        return False

    for r in range(HINGE_RESTARTS):
        if r == 0:
            w = np.zeros(X.shape[1])
        else:
            w = rng.standard_normal(X.shape[1])
            w /= np.linalg.norm(w)
        for t in range(1, HINGE_ITERS + 1):
            margins = y * (X @ w)
            viol = margins < gamma
            if not np.any(viol):
                break
            g = -(y[viol, None] * X[viol]).sum(axis=0) / m
            w = w - (max(gamma, row_scale) / (row_scale * row_scale * math.sqrt(t))) * g
            nrm = np.linalg.norm(w)
            if nrm > 1.0:
                w = w / nrm
            if t % 10 == 0 and consider(w):
                return best_w
        if consider(w):
            return best_w
    return best_w


def adversarial_minimizer(S_train: LabeledSample, test_points: np.ndarray,
                          test_labels: np.ndarray, gamma: float) -> np.ndarray:
    """Zero-training-margin-loss separator that misclassifies every test point.

    Valid only when the combined train+test point set is origin-shattered at
    margin gamma (checked exactly); raises NotShatteredError otherwise.
    lambda_min(XX') >= m gamma^2 bounds y'(XX'/gamma^2)^{-1} y by
    m gamma^2 / lambda_min <= 1 for every sign vector y, so the 2^(m-1)
    labelings are enumerated only when that test fails or the Gram matrix is
    too near singular to invert (which the enumeration reports).
    """
    test = LabeledSample(test_points, test_labels)
    combined = np.vstack([S_train.points, test.points])
    targets = np.concatenate([S_train.labels, -test.labels])
    if lambda_min_sufficient(combined, gamma):
        with contextlib.suppress(SingularGramError):
            return min_norm_interpolator(combined / gamma, targets)
    cert = shatter_at_origin(combined, gamma)
    if not cert.shattered:
        raise NotShatteredError(
            f"combined set not shattered at gamma={gamma} "
            f"(worst value {cert.worst_value:.4g}, Gram condition {cert.gram_condition:.3g})")
    return min_norm_interpolator(combined / gamma, targets)


@dataclass(frozen=True)
class NearestMeanRule:
    w: np.ndarray
    midpoint: np.ndarray

    def predict(self, points: np.ndarray) -> np.ndarray:
        s = (points - self.midpoint) @ self.w
        return np.where(s >= 0, 1.0, -1.0)


def generative_nearest_mean(S: LabeledSample) -> NearestMeanRule:
    """Nearest-class-center rule from empirical class means."""
    pos = S.points[S.labels > 0]
    neg = S.points[S.labels < 0]
    if len(pos) == 0 or len(neg) == 0:
        raise DegenerateSampleError("both classes must be present")
    diff = pos.mean(axis=0) - neg.mean(axis=0)
    nrm = float(np.linalg.norm(diff))
    if nrm == 0:
        raise DegenerateSampleError("class means coincide")
    return NearestMeanRule(w=diff / nrm, midpoint=(pos.mean(axis=0) + neg.mean(axis=0)) / 2.0)


def estimate_lstar(spec: DistributionSpec, gamma: float, seed: int,
                   draws: int = 100_000) -> float | None:
    """Margin-loss proxy of the known best separator, by Monte Carlo.

    Upper-bounds the optimal margin loss: uses the labeling halfspace
    direction when the label model is a halfspace, and for the
    mixture-component model the axis of the first mixture coordinate, whose
    component sign is the label.  None when no best direction is known.

    The count reads only x . w, so when `dist.halfspace_prefix` names leading
    columns that give the same bits, only those are drawn.
    """
    check_positive("gamma", gamma)
    check_int("draws", draws, error=DistSpecError)
    lm = spec.label_model
    if lm.kind in ("halfspace", "halfspace_with_flip"):
        w = lm.w / np.linalg.norm(lm.w)
    elif lm.kind == "mixture_component":
        w = np.zeros(spec.d)
        w[[law.kind for law in spec.laws].index(GAUSSIAN_MIXTURE_SYMMETRIC)] = 1.0
        if spec.rotation is not None:
            w = spec.rotation @ w
    else:
        return None
    j = halfspace_prefix(spec)
    if j is not None:
        spec = DistributionSpec(laws=spec.laws[:j], variances=spec.variances[:j],
                                label_model=LabelModel("halfspace", w=lm.w[:j]))
        w = w[:j]
    below = 0
    for start in range(0, draws, LSTAR_CHUNK):
        points, labels = _sample_rows(spec, start, min(start + LSTAR_CHUNK, draws),
                                      seed, LSTAR_STREAM)
        below += int(np.count_nonzero(_below_margin(labels * (points @ w), gamma)))
    return below / draws


def curve_grid(m_grid, learner_kind: str) -> list[int]:
    """The sample sizes of a learning curve, checked before any draw: m_grid
    is a non-empty iterable of integers >= 1, learner_kind is one of
    LEARNER_KINDS, and erm_exact's largest size is at most EXACT_CAP."""
    grid = list(m_grid) if hasattr(m_grid, "__iter__") else []  # not a JSON number
    if not grid:
        raise ValueError(f"m_grid must be non-empty (a list of integers >= 1), got {m_grid!r}")
    for m in grid:  # a slice [:0], [:-1] or [:True] would pass for a sample
        check_int("m_grid entry", m, error=DistSpecError)
    if learner_kind not in LEARNER_KINDS:
        raise ValueError(f"learner must be one of {', '.join(LEARNER_KINDS)}, "
                         f"got {learner_kind!r}")
    if learner_kind == "erm_exact":
        check_int("largest m_grid entry with learner erm_exact", max(grid),
                  below=EXACT_CAP + 1, error=ExactCapError)
    return [int(m) for m in grid]


def _run_learner(learner_kind: str, train: LabeledSample, test: LabeledSample,
                 gamma: float, seed: int) -> float:
    """Test misclassification error of one learner invocation."""
    if learner_kind == "generative":
        try:
            pred = generative_nearest_mean(train).predict(test.points)
        except DegenerateSampleError:
            # single-class or coinciding-mean draws: predict the majority class
            pred = np.full(test.m, 1.0 if float(train.labels.sum()) >= 0 else -1.0)
    else:
        if learner_kind == "adversarial":
            w = adversarial_minimizer(train, test.points, test.labels, gamma)
        else:
            mode = "exact" if learner_kind == "erm_exact" else "heuristic"
            w = margin_error_minimize(train, gamma, mode=mode, seed=seed).w
        pred = np.where(test.points @ w >= 0, 1.0, -1.0)
    return float(np.mean(pred != test.labels))


def learning_curve(spec: DistributionSpec, gamma: float, m_grid, trials: int,
                   learner_kind: str, seed: int, workers: int = 1) -> LearningCurve:
    """Mean test error vs sample size, with equal train and test sizes.

    Trial t draws its train (stream 2t) and test (stream 2t+1) samples once, at
    the largest grid size, and scores each size m on their m-prefixes.
    """
    check_positive("gamma", gamma)
    m_grid = curve_grid(m_grid, learner_kind)

    def one(t: int) -> list[float]:
        train = sample(spec, max(m_grid), seed, stream=2 * t)
        test = sample(spec, max(m_grid), seed, stream=2 * t + 1)
        return [_run_learner(learner_kind, LabeledSample(train.points[:m], train.labels[:m]),
                             LabeledSample(test.points[:m], test.labels[:m]),
                             gamma, seed=seed * 1_000_003 + t) for m in m_grid]

    errs = np.array(map_trials(one, trials, workers)).T.copy()  # a contiguous row per size
    entries = tuple(CurveEntry(m=m, mean_test_error=float(e.mean()),
                               std_error=float(e.std(ddof=1) / math.sqrt(trials))
                               if trials > 1 else 0.0, trials=trials)
                    for m, e in zip(m_grid, errs))
    digest = hashlib.sha256(
        json.dumps(spec.to_json(), sort_keys=True).encode()).hexdigest()[:16]
    return LearningCurve(gamma=float(gamma), entries=entries,
                         learner_kind=learner_kind, distribution_digest=digest,
                         lstar=estimate_lstar(spec, gamma, seed), seed=seed)


def empirical_sample_complexity(curve: LearningCurve, epsilon: float) -> int | None:
    """Smallest grid m with mean test error within epsilon of the lstar proxy;
    None when the curve never gets there."""
    if curve.lstar is None:
        raise ValueError("curve has no lstar estimate")
    check_unit("epsilon", epsilon)
    for e in curve.entries:
        if e.mean_test_error - curve.lstar <= epsilon:
            return e.m
    return None


def write_curve_csv(path, curve: LearningCurve) -> None:
    """Emit a learning curve as CSV with stable column names."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["m", "mean_test_error", "std_error", "trials",
                    "learner_kind", "gamma", "seed"])
        for e in curve.entries:
            w.writerow([e.m, repr(e.mean_test_error), repr(e.std_error), e.trials,
                        curve.learner_kind, repr(curve.gamma), curve.seed])


def read_curve_csv(path) -> LearningCurve:
    """Read a curve written by write_curve_csv, without lstar or digest (the
    CSV holds neither); a file with no entries reads as gamma nan, seed 0."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    head = rows[0] if rows else {"gamma": "nan", "learner_kind": "", "seed": "0"}
    return LearningCurve(
        gamma=float(head["gamma"]), learner_kind=head["learner_kind"], seed=int(head["seed"]),
        entries=tuple(CurveEntry(int(r["m"]), float(r["mean_test_error"]),
                                 float(r["std_error"]), int(r["trials"])) for r in rows),
        distribution_digest="", lstar=None)
