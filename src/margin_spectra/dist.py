"""Samplers for independently sub-Gaussian distributions with prescribed
covariance spectra, plus label models and the three stock example families.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11): point i of stream s under seed q is drawn from a Philox
generator keyed (q, s) with its counter set to i, so any prefix of a larger
sample coincides with the smaller sample and parallel generation matches
sequential generation exactly.  One call builds one generator and resets its
state before each point; the generator never leaves the call, so concurrent
calls share nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import SEED_LIMIT, check_int, check_positive, check_unit, finite_points
from .spectral import CovarianceSpectrum

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
UNIFORM_SYMMETRIC = "uniform_symmetric"
GAUSSIAN_MIXTURE_SYMMETRIC = "gaussian_mixture_symmetric"
# Raw Philox words (8 bytes each) the sampler holds before turning them into
# Rademacher signs, so that no temporary grows with the number of points.
RADEMACHER_WORDS = 1 << 16

# The law kinds, in the order the sampler draws them for each point.
LAW_KINDS = (GAUSSIAN, RADEMACHER, UNIFORM_SYMMETRIC, GAUSSIAN_MIXTURE_SYMMETRIC)


class DistSpecError(ValueError):
    """Invalid distribution specification or parameters."""


def relative_moment(kind: str) -> float:
    """The sub-Gaussian relative moment rho = B / sqrt(variance) of a law kind,
    from its MGF-domination constant B; it is 1 for every unit-variance law:
      gaussian:           E[exp(tX)] = exp(t^2/2)
      rademacher:         cosh(t) <= exp(t^2/2)
      uniform_symmetric:  sinh(ta)/(ta) <= exp(t^2 a^2 / 6), var = a^2/3
      mixture:            cosh(vt) exp(t^2/2) <= exp((1+v^2) t^2 / 2)
    """
    if kind not in LAW_KINDS:
        raise DistSpecError(f"unknown law kind {kind!r}")
    return 1.0


@dataclass(frozen=True)
class CoordinateLaw:
    """A mean-zero, unit-variance coordinate law."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        relative_moment(self.kind)
        if self.kind == GAUSSIAN_MIXTURE_SYMMETRIC:
            check_positive("mixture offset param 'v'", self.params.get("v"), DistSpecError)


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
            w = finite_points(self.w, 1, f"{self.kind} direction w", DistSpecError)
            if not np.any(w):
                raise DistSpecError(f"{self.kind} direction w must be non-zero")
            object.__setattr__(self, "w", w)
        elif self.kind not in ("coin", "mixture_component"):
            raise DistSpecError(f"unknown label model kind {self.kind!r}")
        elif self.w is not None:
            raise DistSpecError(f"{self.kind} label model takes no direction w")
        if self.kind == "coin":
            check_unit("coin probability p", self.p, closed=True, error=DistSpecError)
        if self.kind == "halfspace_with_flip":
            check_unit("flip probability", self.flip, closed=True, error=DistSpecError)


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
        var = finite_points(self.variances, 1, "variances", DistSpecError)
        if len(laws) != var.size:
            raise DistSpecError(f"{len(laws)} laws but {var.size} variances")
        if np.any(var < 0):
            raise DistSpecError("variances must be non-negative")
        lm = self.label_model
        if lm.w is not None and lm.w.shape != var.shape:
            raise DistSpecError(f"label direction w has shape {lm.w.shape}, need ({var.size},)")
        if lm.kind == "mixture_component" and all(
                l.kind != GAUSSIAN_MIXTURE_SYMMETRIC for l in laws):
            raise DistSpecError("mixture_component label model needs a mixture coordinate")
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
    """Points (rows) with +-1 labels; checks shapes, finite points and label values."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = finite_points(self.points)
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


def _draw_mixture(rng: np.random.Generator, v: float):
    """One unit-variance draw (s v + z) / sqrt(1 + v^2) and its component sign s."""
    s = float(2 * rng.integers(0, 2) - 1)
    z = rng.standard_normal()
    return (s * v + z) / math.sqrt(1.0 + v * v), s


def _sign(x: float) -> float:
    return 1.0 if x >= 0 else -1.0


def _sample_rows(spec: DistributionSpec, start: int, stop: int, seed: int,
                 stream: int) -> tuple[np.ndarray, np.ndarray]:
    """Points start..stop-1 of (seed, stream) as rows, and their labels.

    Before point i the generator is reset to key (seed, stream), counter
    [0, 0, 0, i] and an empty buffer: the state of a generator built for that
    point alone, at a fraction of the cost of building one; the state holds
    plain ints, which the state setter reads faster than numpy scalars.  Only
    the reset and the generator calls run per point, in a fixed order: the
    coordinates kind by kind in LAW_KINDS order, then the uniform of a coin or
    flip label.  Gaussian coordinates in one run of columns are drawn into the
    row itself.

    Rademacher signs come from raw words.  `integers(0, 2, k)` returns bit 31
    of each 32-bit half of the next Philox words, low half first: Lemire's
    method never rejects at range 2, and Philox hands out the low half of a
    64-bit word before the high one.  So k // 2 raw words per point give the
    same signs.  An odd last sign is drawn with `integers(0, 2)`, which leaves
    the word's high half buffered for a later mixture draw, as the sized call
    does.  The words are turned into +-1 a block of rows at a time, through a
    buffer of RADEMACHER_WORDS words (or of one row, if a row needs more).

    After the loop the rows are scaled in place (the same products as a
    per-row multiply), then each row is rotated and its halfspace label taken
    from a per-row `ndarray.dot` (the BLAS ddot that `@` reaches, at less call
    overhead): one matrix product over all rows can round differently.  The
    recorded uniforms become coin and flip labels last.
    """
    check_int("seed", seed, least=0, below=SEED_LIMIT, error=DistSpecError)
    check_int("stream", stream, least=0, below=SEED_LIMIT, error=DistSpecError)
    n, d = stop - start, spec.d
    kinds = [l.kind for l in spec.laws]

    def columns(kind):
        return np.array([i for i, k in enumerate(kinds) if k == kind], dtype=int)

    gauss_idx, rad_idx, uni_idx = columns(GAUSSIAN), columns(RADEMACHER), columns(UNIFORM_SYMMETRIC)
    mixtures = [(j, float(spec.laws[j].params["v"])) for j in columns(GAUSSIAN_MIXTURE_SYMMETRIC)]
    gauss_run = None
    if gauss_idx.size and gauss_idx[-1] - gauss_idx[0] + 1 == gauss_idx.size:
        gauss_run = slice(int(gauss_idx[0]), int(gauss_idx[-1]) + 1)
    half = rad_idx.size // 2
    even_cols, odd_cols = rad_idx[0:2 * half:2], rad_idx[1:2 * half:2]
    last_col = int(rad_idx[-1]) if rad_idx.size % 2 else None
    block = max(1, min(n, RADEMACHER_WORDS // max(half, 1)))
    words = np.empty((block, half), dtype=np.uint64)

    def put_signs(first: int, count: int) -> None:
        w = words[:count]
        points[first:first + count, even_cols] = ((w >> 31) & 1) * 2.0 - 1.0
        points[first:first + count, odd_cols] = (w >> 63) * 2.0 - 1.0

    points = np.empty((n, d))
    labels = np.empty(n)  # the component sign or label uniform until the labels are formed
    lm = spec.label_model
    draws_uniform = lm.kind in ("coin", "halfspace_with_flip")
    a = math.sqrt(3.0)
    bitgen = np.random.Philox(0)  # a fixed seed, so no OS entropy is read
    rng = np.random.Generator(bitgen)
    counter = [0, 0, 0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": [int(seed), int(stream)]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in range(n):
        counter[3] = start + i
        bitgen.state = state
        row = points[i]
        if gauss_run is not None:
            rng.standard_normal(out=row[gauss_run])
        elif gauss_idx.size:
            row[gauss_idx] = rng.standard_normal(gauss_idx.size)
        if half:
            words[i % block] = bitgen.random_raw(half)
            if i % block == block - 1:
                put_signs(i + 1 - block, block)
        if last_col is not None:
            row[last_col] = 2.0 * rng.integers(0, 2) - 1.0
        if uni_idx.size:
            row[uni_idx] = rng.uniform(-a, a, uni_idx.size)
        for k, (j, v) in enumerate(mixtures):
            row[j], s = _draw_mixture(rng, v)
            if k == 0 and lm.kind == "mixture_component":
                labels[i] = s
        if draws_uniform:
            labels[i] = rng.random()
    if half and n % block:
        put_signs(n - n % block, n % block)
    points *= np.sqrt(spec.variances)
    if spec.rotation is not None or lm.w is not None:
        for i, x in enumerate(points):
            if spec.rotation is not None:
                x[:] = spec.rotation @ x
            if lm.kind == "halfspace":
                labels[i] = _sign(lm.w.dot(x))
            elif lm.kind == "halfspace_with_flip":
                y = _sign(lm.w.dot(x))
                labels[i] = -y if labels[i] < lm.flip else y
    if lm.kind == "coin":
        labels = np.where(labels < lm.p, 1.0, -1.0)
    return points, labels


def halfspace_prefix(spec: DistributionSpec) -> int | None:
    """A j < d whose sub-spec (laws[:j], variances[:j], w[:j]) draws the
    first j coordinates and the labels of `spec` bit for bit, else None.

    Only an unrotated halfspace whose w has one non-zero entry, at k,
    qualifies: the other products are exact zeros, so any prefix holding k
    sums to the same label, where two non-zeros could be summed in another
    order.  j = k + 1, or k + 2 when that pairs an odd count of Rademacher
    columns into one raw word instead of an `integers(0, 2)` call.  The
    sub-spec draws the first draws of `spec` when no kind in laws[:j] comes
    later in LAW_KINDS than a kind in laws[j:].
    """
    lm = spec.label_model
    if lm.kind != "halfspace" or spec.rotation is not None:
        return None
    support = np.flatnonzero(lm.w)
    if support.size != 1:
        return None
    kinds = [l.kind for l in spec.laws]
    j = int(support[0]) + 1
    if j < spec.d and kinds[j] == RADEMACHER and kinds[:j].count(RADEMACHER) % 2:
        j += 1
    if j >= spec.d or (max(map(LAW_KINDS.index, kinds[:j]))
                       > min(map(LAW_KINDS.index, kinds[j:]))):
        return None
    return j


def sample(spec: DistributionSpec, m: int, seed: int, stream: int = 0) -> LabeledSample:
    """Draw m labeled points, deterministic given (spec, m, seed, stream).

    seed and stream must be integers in [0, 2**63): outside that range the
    Philox key would wrap, and distinct seeds would give the same sample.
    """
    check_int("m", m, error=DistSpecError)
    points, labels = _sample_rows(spec, 0, m, seed, stream)
    return LabeledSample(points=points, labels=labels)


def paper_example(name: str, d: int, v: float | None = None) -> DistributionSpec:
    """Stock example families: spiky spectrum, hypercube signs, two-Gaussian mixture.

    d must be an integer >= 2 and v, the mixture offset, a positive finite number."""
    check_int("d", d, least=2, error=DistSpecError)
    if v is not None or name == "gaussian_mixture":
        check_positive("v", v, DistSpecError)
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
        laws = (CoordinateLaw(GAUSSIAN_MIXTURE_SYMMETRIC, {"v": float(v)}),) + tuple(
            CoordinateLaw(GAUSSIAN) for _ in range(d - 1))
        variances = np.ones(d)
        variances[0] = 1.0 + v * v
        return DistributionSpec(laws=laws, variances=variances,
                                label_model=LabelModel("mixture_component"))
    raise DistSpecError(f"unknown example {name!r}")
