"""Samplers for independently sub-Gaussian distributions with prescribed
covariance spectra, plus label models and the three stock example families.

Randomness is counter-based: point i of stream s under seed q is generated by
a Philox generator keyed (q, s) with its counter set to i, so any prefix of a
larger sample coincides with the smaller sample and parallel generation
matches sequential generation exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import CovarianceSpectrum

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
UNIFORM_SYMMETRIC = "uniform_symmetric"
GAUSSIAN_MIXTURE_SYMMETRIC = "gaussian_mixture_symmetric"

# MGF-domination constants B with rho = B / sqrt(variance), for the
# unit-variance normalized laws:
#   gaussian:           E[exp(tX)] = exp(t^2/2)                        -> rho = 1
#   rademacher:         cosh(t) <= exp(t^2/2)                          -> rho = 1
#   uniform_symmetric:  sinh(ta)/(ta) <= exp(t^2 a^2 / 6), var = a^2/3 -> rho = 1
#   mixture:            cosh(vt) exp(t^2/2) <= exp((1+v^2) t^2 / 2)    -> rho = 1
RELATIVE_MOMENTS = {
    GAUSSIAN: 1.0,
    RADEMACHER: 1.0,
    UNIFORM_SYMMETRIC: 1.0,
    GAUSSIAN_MIXTURE_SYMMETRIC: 1.0,
}


# Seeds and streams are Philox key words; values from 2**63 up alias others.
SEED_LIMIT = 2**63


class DistSpecError(ValueError):
    """Invalid distribution specification or parameters."""


def relative_moment(kind: str) -> float:
    """Registry lookup of the sub-Gaussian relative moment for a law kind."""
    try:
        return RELATIVE_MOMENTS[kind]
    except KeyError:
        raise DistSpecError(f"unknown law kind {kind!r}") from None


@dataclass(frozen=True)
class CoordinateLaw:
    """A mean-zero, unit-variance coordinate law."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        relative_moment(self.kind)
        if self.kind == GAUSSIAN_MIXTURE_SYMMETRIC and "v" not in self.params:
            raise DistSpecError("gaussian_mixture_symmetric needs an offset param 'v'")

    @property
    def relative_moment(self) -> float:
        return relative_moment(self.kind)


@dataclass(frozen=True)
class LabelModel:
    """Conditional label law: halfspace, coin, halfspace with flips, or the
    mixture-component label tied to the first mixture coordinate."""

    kind: str  # halfspace | coin | halfspace_with_flip | mixture_component
    w: np.ndarray | None = None
    p: float | None = None
    flip: float | None = None

    def __post_init__(self):
        if self.kind in ("halfspace", "halfspace_with_flip"):
            if self.w is None:
                raise DistSpecError(f"{self.kind} label model needs a direction w")
            object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        elif self.kind == "coin":
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise DistSpecError("coin label model needs p in [0, 1]")
        elif self.kind != "mixture_component":
            raise DistSpecError(f"unknown label model kind {self.kind!r}")
        if self.kind == "halfspace_with_flip" and (
                self.flip is None or not (0.0 <= self.flip <= 1.0)):
            raise DistSpecError("halfspace_with_flip needs flip probability in [0, 1]")


@dataclass(frozen=True)
class DistributionSpec:
    """Coordinate laws + variances + optional rotation + a label model.

    Coordinate i is sqrt(variances[i]) times a unit-variance law draw; the
    point is then rotated if a rotation is given, so the covariance matrix is
    rotation . diag(variances) . rotation'.
    """

    laws: tuple
    variances: np.ndarray
    label_model: LabelModel
    rotation: np.ndarray | None = None

    def __post_init__(self):
        laws = tuple(self.laws)
        var = np.asarray(self.variances, dtype=float)
        if len(laws) != var.size:
            raise DistSpecError(f"{len(laws)} laws but {var.size} variances")
        if np.any(var < 0):
            raise DistSpecError("variances must be non-negative")
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "variances", var)
        if self.rotation is not None:
            R = np.asarray(self.rotation, dtype=float)
            if R.shape != (var.size, var.size):
                raise DistSpecError("rotation must be d x d")
            if not np.allclose(R @ R.T, np.eye(var.size), atol=1e-8):
                raise DistSpecError("rotation must be orthogonal")
            object.__setattr__(self, "rotation", R)

    @property
    def d(self) -> int:
        return int(self.variances.size)

    def spectrum(self) -> CovarianceSpectrum:
        return CovarianceSpectrum(np.sort(self.variances)[::-1])

    def to_json(self) -> dict:
        lm = {"kind": self.label_model.kind}
        if self.label_model.w is not None:
            lm["w"] = [float(v) for v in self.label_model.w]
        if self.label_model.p is not None:
            lm["p"] = self.label_model.p
        if self.label_model.flip is not None:
            lm["flip"] = self.label_model.flip
        return {
            "laws": [{"kind": l.kind, "params": dict(l.params)} for l in self.laws],
            "variances": [float(v) for v in self.variances],
            "rotation": None if self.rotation is None
            else [[float(v) for v in row] for row in self.rotation],
            "label_model": lm,
        }

    @staticmethod
    def from_json(obj: dict) -> "DistributionSpec":
        laws = tuple(CoordinateLaw(l["kind"], dict(l.get("params", {}))) for l in obj["laws"])
        lm = obj["label_model"]
        label = LabelModel(kind=lm["kind"], w=lm.get("w"), p=lm.get("p"), flip=lm.get("flip"))
        rot = obj.get("rotation")
        return DistributionSpec(laws=laws, variances=np.array(obj["variances"], dtype=float),
                                label_model=label,
                                rotation=None if rot is None else np.array(rot, dtype=float))


@dataclass(frozen=True)
class LabeledSample:
    """Points (rows) with +-1 labels; checks shapes and label values."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        y = np.atleast_1d(np.asarray(self.labels, dtype=float))
        if pts.shape[0] != y.size:
            raise ValueError("points/labels length mismatch")
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must be +-1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", y)

    @property
    def m(self) -> int:
        return self.points.shape[0]


def _point_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    bg = np.random.Philox(key=[seed, stream], counter=[0, 0, 0, index])
    return np.random.Generator(bg)


def _draw_mixture(rng: np.random.Generator, v: float):
    """One unit-variance draw (s v + z) / sqrt(1 + v^2) and its component sign s."""
    s = float(2 * rng.integers(0, 2) - 1)
    z = rng.standard_normal()
    return (s * v + z) / math.sqrt(1.0 + v * v), s


def _sign(x: float) -> float:
    return 1.0 if x >= 0 else -1.0


def sample(spec: DistributionSpec, m: int, seed: int, stream: int = 0) -> LabeledSample:
    """Draw m labeled points, deterministic given (spec, m, seed, stream).

    seed and stream must be integers in [0, 2**63): outside that range the
    Philox key would wrap, and distinct seeds would give the same sample.
    """
    if m < 1:
        raise DistSpecError(f"m must be positive, got {m}")
    for name, value in (("seed", seed), ("stream", stream)):
        if not isinstance(value, (int, np.integer)) or not 0 <= value < SEED_LIMIT:
            raise DistSpecError(f"{name} must be an integer in [0, 2**63), got {value!r}")
    d = spec.d
    scale = np.sqrt(spec.variances)
    kinds = [l.kind for l in spec.laws]
    gauss_idx = np.array([i for i, k in enumerate(kinds) if k == GAUSSIAN], dtype=int)
    rad_idx = np.array([i for i, k in enumerate(kinds) if k == RADEMACHER], dtype=int)
    uni_idx = np.array([i for i, k in enumerate(kinds) if k == UNIFORM_SYMMETRIC], dtype=int)
    mix_idx = [i for i, k in enumerate(kinds) if k == GAUSSIAN_MIXTURE_SYMMETRIC]
    points = np.empty((m, d))
    labels = np.empty(m)
    lm = spec.label_model
    for i in range(m):
        rng = _point_rng(seed, stream, i)
        x = np.empty(d)
        if gauss_idx.size:
            x[gauss_idx] = rng.standard_normal(gauss_idx.size)
        if rad_idx.size:
            x[rad_idx] = 2.0 * rng.integers(0, 2, rad_idx.size) - 1.0
        if uni_idx.size:
            a = math.sqrt(3.0)
            x[uni_idx] = rng.uniform(-a, a, uni_idx.size)
        component = None
        for j in mix_idx:
            val, s = _draw_mixture(rng, float(spec.laws[j].params["v"]))
            x[j] = val
            if component is None:
                component = s
        x = scale * x
        if spec.rotation is not None:
            x = spec.rotation @ x
        if lm.kind == "halfspace":
            labels[i] = _sign(float(lm.w @ x))
        elif lm.kind == "halfspace_with_flip":
            y = _sign(float(lm.w @ x))
            if rng.random() < lm.flip:
                y = -y
            labels[i] = y
        elif lm.kind == "coin":
            labels[i] = 1.0 if rng.random() < lm.p else -1.0
        else:  # mixture_component
            if component is None:
                raise DistSpecError("mixture_component label model needs a mixture coordinate")
            labels[i] = component
        points[i] = x
    return LabeledSample(points=points, labels=labels)


def paper_example(name: str, d: int, v: float | None = None) -> DistributionSpec:
    """Stock example families: spiky spectrum, hypercube signs, two-Gaussian mixture."""
    if d < 2:
        raise DistSpecError(f"d must be >= 2, got {d}")
    e1 = np.zeros(d)
    e1[0] = 1.0
    if name == "spiky":
        # one dominant direction carrying almost all the variance
        variances = np.full(d, 1.0 / (d - 1))
        variances[0] = float(d - 1)
        laws = tuple(CoordinateLaw(GAUSSIAN) for _ in range(d))
        return DistributionSpec(laws=laws, variances=variances,
                                label_model=LabelModel("halfspace", w=e1))
    if name == "bernoulli":
        laws = tuple(CoordinateLaw(RADEMACHER) for _ in range(d))
        return DistributionSpec(laws=laws, variances=np.ones(d),
                                label_model=LabelModel("halfspace", w=e1))
    if name == "gaussian_mixture":
        if v is None or v <= 0:
            raise DistSpecError("gaussian_mixture needs a positive offset v")
        laws = (CoordinateLaw(GAUSSIAN_MIXTURE_SYMMETRIC, {"v": float(v)}),) + tuple(
            CoordinateLaw(GAUSSIAN) for _ in range(d - 1))
        variances = np.ones(d)
        variances[0] = 1.0 + v * v
        return DistributionSpec(laws=laws, variances=variances,
                                label_model=LabelModel("mixture_component"))
    raise DistSpecError(f"unknown example {name!r}")
