"""The four benchmark workloads: input construction, one iteration, checks.

Every workload calls only the package's public API and gets only generated
inputs or seeds.  One iteration makes the same calls on the same inputs each
time, so a run's work, and every work counter, depends only on the seed.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

WORKERS = 2
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# One BLAS thread per trial worker on each core unless the caller sets these:
# with two workers and default OpenBLAS threading on two cores, an edge_large
# iteration took 40% longer and varied three times as much.  This must
# happen before numpy is imported.
for _var in BLAS_ENV:
    os.environ.setdefault(_var, str(max(1, (os.cpu_count() or 1) // WORKERS)))

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
EXPECTED_CERTIFY = HERE / "expected_certify.json"


class Context:
    """Per-iteration call timing and check bookkeeping."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.checks: list[tuple[str, bool, str]] = []

    def call(self, fn, *args, **kwargs):
        t0 = perf_counter()
        if self.tracer is not None:
            result = self.tracer.call(fn, *args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        self.latencies.append(perf_counter() - t0)
        return result

    def check(self, name: str, ok, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @contextmanager
    def guard(self, name: str):
        """A raised exception counts as one failed check."""
        try:
            yield
        except Exception as e:  # noqa: BLE001 - reported as a failed check
            self.checks.append((name, False, f"raised {type(e).__name__}: {e}"))


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    build: Callable  # (ms, seed, small, out_dir) -> inputs
    run: Callable  # (ms, ctx, inputs) -> None


def iid_spec(ms, kind: str, d: int):
    return ms.dist.DistributionSpec(laws=(ms.dist.CoordinateLaw(kind),) * d,
                                    variances=np.ones(d),
                                    label_model=ms.dist.LabelModel("coin", p=0.5))


# ------------------------------------------------------------- edge_large
# Acceptance criterion 6 scaled down: a few large Gram matrices, so Gram
# formation and lambda_min dominate, with the sampler second.

def build_edge(ms, seed, small, out_dir):
    d, trials = (1000, 1) if small else (4000, 2)
    return {"specs": [iid_spec(ms, k, d) for k in ("gaussian", "rademacher")],
            "d": d, "beta": 0.5, "trials": trials, "seed": seed}


def run_edge(ms, ctx, inp):
    for spec in inp["specs"]:
        kind = spec.laws[0].kind
        with ctx.guard(f"edge.{kind}"):
            rep = ctx.call(ms.randmat.edge_mc_compare, spec, inp["beta"], inp["d"],
                           inp["trials"], inp["seed"], workers=WORKERS)
            ctx.check(f"edge.{kind}.rel_error", rep.rel_error < 0.10,
                      f"relative error {rep.rel_error:.4f}")


# --------------------------------------------------------------- mu_small
# Acceptance criterion 7: thousands of small nested eigen-solves that only
# need the indicator lambda_min >= m gamma^2, with the per-point sampler
# taking most of the busy time.

def build_mu(ms, seed, small, out_dir):
    d, trials = (100, 20) if small else (400, 200)
    return {"spec": iid_spec(ms, "gaussian", d), "m_max": 150 if not small else 60,
            "trials": trials, "seed": seed, "small": small}


def run_mu(ms, ctx, inp):
    with ctx.guard("mu"):
        res = ctx.call(ms.randmat.m_underline, inp["spec"], 1.0, inp["m_max"],
                       inp["trials"], inp["seed"], workers=WORKERS)
        lo, hi = (1, 60) if inp["small"] else (40, 120)
        ctx.check("mu.bracket", lo <= res.m_underline <= hi,
                  f"m_underline {res.m_underline} in [{lo}, {hi}]")


# -------------------------------------------------------- curve_heuristic
# Learning curves with the hinge heuristic through the CLI entry point: the
# only workload where the heuristic, estimate_lstar and cli run.

SPIKY_GRID = [4, 8, 16, 24, 32, 40]
BERNOULLI_GRID = [4, 8, 12, 16, 24, 32]
EPSILON = 0.15


def build_curve(ms, seed, small, out_dir):
    # Few spiky trials: how long a hinge fit runs on spiky data varies most
    # from sample to sample (it stops once every margin is met).
    spiky_d, spiky_trials, bernoulli_trials = (101, 2, 2) if small else (201, 3, 8)

    def config(example, d, grid, trials):
        return ms.cli.validate_config("learn-curve", {
            "schema_version": ms.cli.SCHEMA_VERSION,
            "dist": {"example": example, "d": d}, "gamma": 1.0, "m_grid": grid,
            "trials": trials, "learner": "erm_heuristic", "seed": seed,
            "workers": WORKERS})

    return {"spiky": config("spiky", spiky_d, SPIKY_GRID, spiky_trials),
            "bernoulli": config("bernoulli", 20, BERNOULLI_GRID, bernoulli_trials),
            "out_dir": out_dir, "small": small}


def _curve_ok(ctx, tag, summary, grid):
    entries = summary["entries"]
    ctx.check(f"curve.{tag}.shape",
              [e["m"] for e in entries] == grid
              and all(0.0 <= e["mean_test_error"] <= 1.0 for e in entries)
              and summary["lstar"] is not None and 0.0 <= summary["lstar"] <= 1.0,
              "one entry per grid size, errors and lstar in [0, 1]")


def run_curve(ms, ctx, inp):
    for tag, grid in (("spiky", SPIKY_GRID), ("bernoulli", BERNOULLI_GRID)):
        with ctx.guard(f"curve.{tag}"):
            report = ctx.call(ms.cli.run, inp[tag], inp["out_dir"] / tag)
            summary = report["summary"]
            _curve_ok(ctx, tag, summary, grid)
            if tag == "spiky" and not inp["small"]:
                lstar = summary["lstar"]
                mc = next((e["m"] for e in summary["entries"]
                           if e["mean_test_error"] - lstar <= EPSILON), None)
                ctx.check("curve.spiky.sample_complexity", mc is not None and mc <= 40,
                          f"spiky sample complexity {mc} <= 40")


# ---------------------------------------------------------- certify_exact
# Exact certification on point sets drawn by the benchmark's own RNG: no
# sampler or randmat code runs; optim, shatter, spectral and the exact
# learner do all the work.

ERM_M, ERM_D, ERM_GAMMA = 8, 3, 1.5
SHATTER_M, SHATTER_D, SHATTER_GAMMA = 20, 60, 0.2
SEARCH_M, SEARCH_D, SEARCH_GAMMA, SEARCH_MAX = 9, 5, 0.6, 5
BOUND_M, BOUND_D, BOUND_GAMMA = 20, 300, 1.0
CERTIFY_SEED = 808


def build_certify(ms, seed, small, out_dir):
    rng = np.random.default_rng([seed, 0xCE27])
    n_erm, n_shatter, n_search, n_bound = (2, 2, 4, 1) if small else (4, 4, 15, 1)
    erm = [ms.learner.LabeledSample(rng.standard_normal((ERM_M, ERM_D)),
                                    rng.choice([-1.0, 1.0], size=ERM_M))
           for _ in range(n_erm)]
    # Scales straddle the shattering threshold, so both verdicts occur.
    shatter = [rng.standard_normal((SHATTER_M, SHATTER_D)) * s
               for s in np.exp(rng.uniform(np.log(0.15), np.log(0.35), n_shatter))]
    search = [rng.standard_normal((SEARCH_M, SEARCH_D)) for _ in range(n_search)]
    bound = [rng.standard_normal((BOUND_M, BOUND_D)) for _ in range(n_bound)]
    return {"erm": erm, "shatter": shatter, "search": search, "bound": bound,
            "seed": seed, "expected": load_expected(seed, small)}


def run_certify(ms, ctx, inp):
    got = {"erm_loss": [], "shatter": [], "search": [], "bound": []}
    for i, S in enumerate(inp["erm"]):
        with ctx.guard(f"certify.erm.{i}"):
            exact = ctx.call(ms.learner.margin_error_minimize, S, ERM_GAMMA, mode="exact")
            heur = ms.learner.margin_error_minimize(S, ERM_GAMMA, mode="heuristic",
                                                    seed=inp["seed"])
            got["erm_loss"].append(exact.train_margin_loss)
            ctx.check(f"certify.erm.{i}.le_heuristic",
                      exact.train_margin_loss <= heur.train_margin_loss,
                      f"exact {exact.train_margin_loss} <= heuristic "
                      f"{heur.train_margin_loss}")
    for i, X in enumerate(inp["shatter"]):
        with ctx.guard(f"certify.shatter.{i}"):
            cert = ctx.call(ms.shatter.shatter_at_origin, X, SHATTER_GAMMA)
            got["shatter"].append(bool(cert.shattered))
    for i, X in enumerate(inp["search"]):
        with ctx.guard(f"certify.search.{i}"):
            est = ctx.call(ms.shatter.fat_shattering_search, X, SEARCH_GAMMA, SEARCH_MAX)
            got["search"].append([est.lower, est.upper])
            ctx.check(f"certify.search.{i}.bracket", est.lower <= est.upper,
                      f"lower {est.lower} <= upper {est.upper}")
    for i, X in enumerate(inp["bound"]):
        with ctx.guard(f"certify.bound.{i}"):
            ub = ctx.call(ms.shatter.fat_shattering_upper_bound, X, BOUND_GAMMA)
            got["bound"].append(int(ub))
            ctx.check(f"certify.bound.{i}.range", 0 <= ub, f"upper bound {ub}")
    expected = inp.get("expected")
    if expected is not None:
        for key, want in expected.items():
            ctx.check(f"certify.expected.{key}", got[key] == want,
                      f"got {got[key]}, stored {want}")
    return got


def load_expected(seed: int, small: bool):
    """Stored results for the default seed at full size; None otherwise."""
    if small or seed != CERTIFY_SEED:
        return None
    return json.loads(EXPECTED_CERTIFY.read_text())


WORKLOADS = {w.name: w for w in [
    Workload("edge_large", 606, build_edge, run_edge),
    Workload("mu_small", 11, build_mu, run_mu),
    Workload("curve_heuristic", 123, build_curve, run_curve),
    Workload("certify_exact", CERTIFY_SEED, build_certify, run_certify),
]}
