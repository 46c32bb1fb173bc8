#!/usr/bin/env python3
"""margin-spectra benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload edge_large --seed 606 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy.  The run repeats one iteration
of the workload (same inputs, same calls) until ``--seconds`` have passed,
checks every result, and prints a detail record (environment, every metric
with its unit, checks, counters) followed by a last line holding only
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates traced and untraced iterations, and reports the difference of
their median wall times as ``trace.overhead_s``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 5
MODULES = ("spectral", "optim", "dist", "shatter", "randmat", "learner", "cli")

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import BLAS_ENV, WORKERS, WORKLOADS, Context  # noqa: E402


def import_package():
    """The package from this checkout's src/, with its submodules loaded."""
    init = SRC / "margin_spectra" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: package source not found: {init}")
    sys.path.insert(0, str(SRC))
    ms = importlib.import_module("margin_spectra")
    if Path(ms.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {ms.__file__}, expected {init}")
    for name in MODULES:
        importlib.import_module(f"margin_spectra.{name}")
    return ms


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cpu_count": os.cpu_count(),
        "workers": WORKERS,
        "seed": seed,
    }


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def setup_seconds(args) -> list[float]:
    """Interpreter start, imports and input construction, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(ms, args) -> tuple[dict, dict]:
    w = WORKLOADS[args.workload]
    out_dir = SCRATCH / f"{w.name}-{os.getpid()}"
    setup = setup_seconds(args)
    inputs = w.build(ms, args.seed, args.small, out_dir)
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    iters = []
    start = perf_counter()
    try:
        # At least three untraced iterations, so that the median is not the
        # first, slower one; a traced run needs one traced and one untraced.
        while len(iters) < (2 if args.trace else 3) or perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(iters) % 2 == 0
            if traced:
                tracer.install()
            ctx = Context(tracer if traced else None)
            cpu0, t0 = cpu_seconds(), perf_counter()
            try:
                w.run(ms, ctx, inputs)
            finally:
                wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
                if traced:
                    tracer.uninstall()
            iters.append({"traced": traced, "wall": wall, "cpu": cpu, "ctx": ctx,
                          "trace": rec.new_iteration() if traced else None,
                          "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024})
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    return summarize(args, iters, setup, tracer.missing)


def summarize(args, iters, setup, missing) -> tuple[dict, dict]:
    checks = [c for it in iters for c in it["ctx"].checks]
    plain = [it for it in iters if not it["traced"]]
    traced = [it for it in iters if it["traced"]]
    for it in traced:
        it["layers"] = spans.layer_values(*it["trace"])
    if traced:
        counts = [{k: it["layers"][k] for k in spans.COUNT_METRICS} for it in traced]
        checks.append(("trace.counters_repeat", all(c == counts[0] for c in counts),
                       "work counters equal in every traced iteration"))
    failed = [c for c in checks if not c[1]]
    lat = sorted(x for it in plain for x in it["ctx"].latencies)
    walls = [it["wall"] for it in plain]

    end_to_end = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(it["cpu"] for it in plain), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        # At the end of the first iteration: later ones can only add heap
        # fragmentation, so a run's peak would depend on how many fit in it.
        "peak_rss_mb": {"value": iters[0]["max_rss_mb"], "unit": "MB"},
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "iteration_wall_s": [it["wall"] for it in iters],
        "fail_frac": len(failed) / len(checks),
        "checks_attempted": len(checks),
        "failed_checks": [{"name": n, "detail": d} for n, _, d in failed],
        "calls": {"n": len(lat),
                  "call_p50_ms": 1e3 * statistics.median(lat) if lat else None,
                  # highest percentile with at least ten samples beyond it
                  "call_p90_ms": 1e3 * percentile(lat, 90) if len(lat) >= 100 else None},
        "setup_s_samples": setup,
        "end_to_end": end_to_end,
    }
    if not args.trace:
        return detail, end_to_end

    layer = {}
    for name, (unit, _) in spans.LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = (statistics.median(it["wall"] for it in traced)
                     - statistics.median(walls))
        elif unit == "count":
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(it["layers"][name] for it in traced)
        layer[name] = {"value": value, "unit": unit}
    detail["per_layer"] = layer
    detail["counters"] = counts[0]
    detail["missing_wrap_targets"] = missing
    detail["unmeasured"] = spans.unmeasured(missing)
    return detail, layer


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, help="workload seed (default: the acceptance seed)")
    p.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced sizes for the smoke run")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")

    ms = import_package()
    if args.setup_only:
        WORKLOADS[args.workload].build(ms, args.seed, args.small, SCRATCH)
        return 0
    detail, metrics = measure(ms, args)
    print(json.dumps(detail))
    print(json.dumps({"correct": detail["fail_frac"] == 0.0,
                      "attempted": detail["checks_attempted"],
                      "failed": len(detail["failed_checks"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
