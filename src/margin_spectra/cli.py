"""Batch front end: JSON experiment configs, one subcommand per analysis,
CSV emission, and a one-shot reproduction of the stock example experiments.

Exit codes: 0 ok, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import __version__
from .checks import SEED_LIMIT, check_int, check_positive, check_unit
from .dist import DistributionSpec, paper_example
from .learner import (
    curve_grid,
    empirical_sample_complexity,
    estimate_lstar,
    learning_curve,
    read_curve_csv,
    write_curve_csv,
)
from .randmat import (
    edge_mc_compare,
    edge_sample_size,
    estimate_shatter_prob,
    m_underline,
    write_prob_curve_csv,
)
from .shatter import (DEFAULT_CAP, SubsetBudgetError, fat_shattering_search, read_points_csv,
                      shatter_at_origin)
from .spectral import k_gamma, read_spectrum_csv, set_limit_certificate

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Config fails schema validation."""


@dataclass
class ExperimentConfig:
    command: str
    params: dict

    def to_json(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **self.params}


# allowed (required, optional) fields per subcommand
_SCHEMAS = {
    "kgamma": ({"spectrum_csv", "gamma"}, set()),
    "limit-cert": ({"points_csv", "k"}, set()),
    "shatter-check": ({"points_csv", "gamma"}, set()),
    "fat-dim": ({"points_csv", "gamma", "max_subset"}, set()),
    "eigen-prob": ({"dist", "gamma", "m", "trials", "seed"}, {"workers"}),
    "m-underline": ({"dist", "gamma", "m_max", "trials", "seed"}, {"workers"}),
    "edge-check": ({"dist", "beta", "d", "trials", "seed"}, {"workers"}),
    "learn-curve": ({"dist", "gamma", "m_grid", "trials", "learner", "seed"}, {"workers"}),
    "sample-complexity": ({"curve_csv", "lstar", "epsilon"}, set()),
    "reproduce-examples": (set(), {"seed", "workers", "budget_seconds"}),
}


# field -> the library's rule, called as rule(name, value); a ValueError names the field
_FIELD_RULES = {
    "seed": partial(check_int, least=0, below=SEED_LIMIT),
    "k": partial(check_int, least=0),
    "max_subset": partial(check_int, below=DEFAULT_CAP + 1),
    **dict.fromkeys(("trials", "m", "m_max", "workers", "d"), check_int),
    **dict.fromkeys(("gamma", "budget_seconds"), check_positive),
    **dict.fromkeys(("beta", "epsilon"), check_unit),
    "lstar": partial(check_unit, closed=True),
}


def validate_config(command: str, raw: dict) -> ExperimentConfig:
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown subcommand {command!r}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"config must carry schema_version = {SCHEMA_VERSION}")
    required, optional = _SCHEMAS[command]
    fields = set(raw) - {"schema_version", "out"}
    missing = required - fields
    unknown = fields - required - optional
    if missing:
        raise ConfigError(f"missing config fields: {sorted(missing)}")
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for name, rule in _FIELD_RULES.items():
        if name in raw:
            try:
                rule(name, raw[name])
            except ValueError as e:
                raise ConfigError(str(e)) from None
    if "dist" in raw:
        try:
            spec = _dist_from_config(raw["dist"])  # the library's constructors decide
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"invalid dist ({type(e).__name__}: {e})") from None
    try:  # the library's rules over several fields; the message names the field
        if command == "edge-check":
            edge_sample_size(spec, raw["beta"], raw["d"])  # edge-check requires dist
        elif command == "learn-curve":
            curve_grid(raw["m_grid"], raw["learner"])
    except ValueError as e:
        raise ConfigError(str(e)) from None
    params = {k: v for k, v in raw.items() if k != "schema_version"}
    return ExperimentConfig(command=command, params=params)


# config fields naming an input file, whose bytes the report digest covers
_INPUT_FILES = ("spectrum_csv", "points_csv", "curve_csv")


def _inputs_digest(config: ExperimentConfig) -> str:
    digest = hashlib.sha256(json.dumps(config.to_json(), sort_keys=True).encode())
    for name in _INPUT_FILES:
        if name in config.params:
            digest.update(hashlib.sha256(Path(config.params[name]).read_bytes()).digest())
    return digest.hexdigest()


def _dist_from_config(obj: dict) -> DistributionSpec:
    if "example" in obj:
        return paper_example(obj["example"], d=obj["d"], v=obj.get("v"))
    return DistributionSpec.from_json(obj)


def run(config: ExperimentConfig, out_dir: Path) -> dict:
    """Dispatch one validated config; returns the experiment report."""
    t0 = time.perf_counter()
    digest = _inputs_digest(config)
    p = config.params
    outputs: list[str] = []
    summary: dict = {}

    def out(name: str) -> Path:
        """The path of output file `name`, listed in the report; the first call
        makes out_dir, so a run that fails before writing leaves none."""
        if not outputs:
            out_dir.mkdir(parents=True, exist_ok=True)
        outputs.append(str(out_dir / name))
        return out_dir / name

    workers = int(p.get("workers", 1))
    spec = _dist_from_config(p["dist"]) if "dist" in p else None

    if config.command == "kgamma":
        spectrum = read_spectrum_csv(p["spectrum_csv"])
        res = k_gamma(spectrum, float(p["gamma"]))
        summary = {"k": res.k, "gamma": res.gamma, "tail_sum": res.tail_sum}
    elif config.command == "limit-cert":
        pts = read_points_csv(p["points_csv"])
        check_int("k", p["k"], least=0, below=pts.shape[1] + 1, error=ConfigError)
        cert = set_limit_certificate(pts, int(p["k"]))
        out("limit_cert.json").write_text(json.dumps(
            {"b": cert.b, "k": cert.k, "top_basis": cert.top_basis.tolist()}, indent=2))
        summary = {"b": cert.b, "k": cert.k}
    elif config.command == "shatter-check":
        pts = read_points_csv(p["points_csv"])
        cert = shatter_at_origin(pts, float(p["gamma"]))
        out("shatter_certificate.json").write_text(json.dumps(cert.to_dict(), indent=2))
        summary = {"shattered": cert.shattered, "worst_value": cert.worst_value}
    elif config.command == "fat-dim":
        pts = read_points_csv(p["points_csv"])
        try:
            est = fat_shattering_search(pts, float(p["gamma"]), int(p["max_subset"]))
        except SubsetBudgetError as e:  # the subset count depends on the file's points
            raise ConfigError(str(e)) from None
        summary = {"lower": est.lower, "upper": est.upper,
                   "witness_subset": list(est.witness_subset)}
    elif config.command == "eigen-prob":
        est = estimate_shatter_prob(spec, float(p["gamma"]), int(p["m"]),
                                    int(p["trials"]), int(p["seed"]), workers)
        write_prob_curve_csv(out("eigen_prob.csv"), [est])
        summary = {"prob": est.prob, "ci_low": est.ci_low, "ci_high": est.ci_high}
    elif config.command == "m-underline":
        res = m_underline(spec, float(p["gamma"]), int(p["m_max"]),
                          int(p["trials"]), int(p["seed"]), workers)
        write_prob_curve_csv(out("m_underline_curve.csv"), res.estimates)
        summary = {"m_underline": res.m_underline, "first_failing_m": res.first_failing_m}
    elif config.command == "edge-check":
        rep = edge_mc_compare(spec, float(p["beta"]), int(p["d"]),
                              int(p["trials"]), int(p["seed"]), workers)
        summary = {"empirical_mean": rep.empirical_mean, "predicted": rep.predicted,
                   "rel_error": rep.rel_error}
    elif config.command == "learn-curve":
        curve = learning_curve(spec, float(p["gamma"]), p["m_grid"],
                               int(p["trials"]), p["learner"], int(p["seed"]), workers)
        write_curve_csv(out("learning_curve.csv"), curve)
        summary = {"lstar": estimate_lstar(spec, float(p["gamma"]), int(p["seed"])),
                   "entries": [{"m": e.m, "mean_test_error": e.mean_test_error}
                               for e in curve.entries]}
    elif config.command == "sample-complexity":
        found = empirical_sample_complexity(read_curve_csv(p["curve_csv"]), float(p["lstar"]),
                                            float(p["epsilon"]))
        summary = {"epsilon": float(p["epsilon"]), "lstar": float(p["lstar"]),
                   "m": found, "reached": found is not None}
    elif config.command == "reproduce-examples":
        summary = reproduce_examples(
            out, seed=int(p.get("seed", 20260825)), workers=workers,
            budget_seconds=float(p.get("budget_seconds", 600.0)))
    else:
        raise ConfigError(f"unknown subcommand {config.command!r}")

    report = {
        "command": config.command,
        "inputs_digest": digest,
        "outputs": outputs,
        "summary": summary,
        "wall_clock_seconds": round(time.perf_counter() - t0, 3),
        "library_version": __version__,
        "seed": p.get("seed"),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2))
    return report


def reproduce_examples(out, seed: int, workers: int = 1,
                       budget_seconds: float = 600.0) -> dict:
    """Fixed-seed pipeline over the three stock example families; each file
    goes to the path out(name) returns."""
    t0 = time.perf_counter()
    table: list[dict] = []
    incomplete = False

    def over_budget() -> bool:
        return time.perf_counter() - t0 > budget_seconds

    # (a) spiky spectrum: tiny adapted dimension despite huge trace
    spec = paper_example("spiky", d=1001)
    k1 = k_gamma(spec.spectrum(), 1.0).k
    curve = learning_curve(spec, 1.0, [4, 8, 16, 24, 32, 40], trials=10,
                           learner_kind="erm_heuristic", seed=seed, workers=workers)
    write_curve_csv(out("spiky_curve.csv"), curve)
    mc = empirical_sample_complexity(curve, estimate_lstar(spec, 1.0, seed), 0.15)
    table.append({"example": "spiky", "d": 1001, "gamma": 1.0, "k_gamma": k1,
                  "sample_complexity_eps_0.15": mc})

    # (b) sign-vector coordinates: complexity linear in dimension
    complexities = {}
    for d in (20, 40):
        if over_budget():
            incomplete = True
            break
        spec = paper_example("bernoulli", d=d)
        k1 = k_gamma(spec.spectrum(), 1.0).k
        grid = [4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64]
        curve = learning_curve(spec, 1.0, grid, trials=20,
                               learner_kind="erm_heuristic", seed=seed, workers=workers)
        write_curve_csv(out(f"bernoulli_d{d}_curve.csv"), curve)
        mc = empirical_sample_complexity(curve, estimate_lstar(spec, 1.0, seed), 0.15)
        complexities[d] = mc
        table.append({"example": "bernoulli", "d": d, "gamma": 1.0, "k_gamma": k1,
                      "sample_complexity_eps_0.15": mc})
    if 20 in complexities and 40 in complexities and complexities[20]:
        table.append({"example": "bernoulli_scaling",
                      "complexity_ratio_d40_over_d20":
                      complexities[40] / complexities[20] if complexities[40] else None})

    # (c) two-Gaussian mixture: generative vs discriminative
    gen_reach = {}
    for v in (4.0, 8.0):
        if over_budget():
            incomplete = True
            break
        d = 256
        gamma = v / 2.0
        spec = paper_example("gaussian_mixture", d=d, v=v)
        kg = k_gamma(spec.spectrum(), gamma).k
        grid = [4, 8, 16, 32, 64]
        row = {"example": "gaussian_mixture", "d": d, "v": v, "gamma": gamma,
               "k_gamma": kg}
        for kind in ("erm_heuristic", "generative"):
            curve = learning_curve(spec, gamma, grid, trials=5,
                                   learner_kind=kind, seed=seed, workers=workers)
            write_curve_csv(out(f"mixture_v{int(v)}_{kind}_curve.csv"), curve)
            reach = next((e.m for e in curve.entries if e.mean_test_error <= 0.05), None)
            row[f"{kind}_m_to_error_0.05"] = reach
            if kind == "generative":
                gen_reach[v] = reach
        table.append(row)

    out("examples_table.json").write_text(json.dumps(table, indent=2))
    summary = {"table": table, "incomplete": incomplete}
    if 4.0 in gen_reach and 8.0 in gen_reach and gen_reach[8.0] is not None:
        summary["generative_faster_at_v8"] = (
            gen_reach[4.0] is None or gen_reach[8.0] <= gen_reach[4.0])
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="margin-spectra",
        description="Spectral sample-complexity analyses for large-margin classification")
    parser.add_argument("command", choices=sorted(_SCHEMAS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--workers", type=int, help="override worker count")
    parser.add_argument("--out", help="output directory (default: .)")
    args = parser.parse_args(argv)

    try:
        raw = {"schema_version": SCHEMA_VERSION}
        if args.config:
            with open(args.config) as f:
                raw = json.load(f)
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        for name in ("seed", "workers", "out"):  # command-line overrides
            if getattr(args, name) is not None:
                raw[name] = getattr(args, name)
        config = validate_config(args.command, raw)
    except (ConfigError, OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        report = run(config, Path(config.params.get("out", ".")))
    except ConfigError as e:  # a field its input file contradicts
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error ({type(e).__name__}): {e}", file=sys.stderr)
        return 3
    print(json.dumps(report["summary"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
