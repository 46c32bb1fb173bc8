#!/usr/bin/env python3
"""Reduced-size smoke run of the benchmark itself (about two minutes).

    python3 perfbench/smoke.py

Runs every workload at reduced sizes (``--small``) untraced once and traced
twice, and fails unless each last line has exactly the keys the harness
promises, every check passed, every metric named in BENCHMARK.json is
present, and the work counters of the two traced runs are equal.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seconds", "1", "--trace", str(trace), "--small"],
                         cwd=ROOT, check=True, capture_output=True, text=True)
    detail, last = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return detail, last


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        counters = []
        for trace in (0, 1, 1):
            detail, last = run(name, trace)
            tag = f"{name} --trace {trace}"
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: last line keys {sorted(last)}")
            if not last["correct"] or last["failed"]:
                problems.append(f"{tag}: failed checks {detail['failed_checks']}")
            if set(last["metrics"]) != wanted[trace]:
                problems.append(f"{tag}: metrics {sorted(set(last['metrics']) ^ wanted[trace])}"
                                " differ from BENCHMARK.json")
            if trace:
                counters.append(detail["counters"])
        if counters[0] != counters[1]:
            problems.append(f"{name}: counters differ between runs: {counters}")
        print(f"{name}: {'ok' if not problems else 'problems'}", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
