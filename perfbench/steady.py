"""Steadiness check: run one workload k times and show how much each metric moves.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload reads-federated --runs 10

Each run gets its own process and its own seed (1, 2, ..., k) and lasts the
``run_seconds`` of ``BENCHMARK.json``.  Per end-to-end metric the command
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and that spread as a fraction of the metric's bound in ``BENCHMARK.json``.
A spread above a third of its bound is marked and makes the command fail.
It also checks that every run was correct and that the share of failed
operations was the same in every run.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int) -> Tuple[dict, str]:
    """One run's result object and the hypervisor steal it printed."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if completed.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
    steal = re.search(r"hypervisor steal during the run: (\S+)", completed.stdout)
    return json.loads(completed.stdout.strip().splitlines()[-1]), steal.group(1) if steal else "?"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    results = []
    for seed in range(1, args.runs + 1):
        result, steal = run_once(args.workload, seed)
        results.append(result)
        figures = "  ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
        )
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} steal={steal}  {figures}", flush=True)

    steady = True
    print(f"\n{'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}{'/bound':>8}")
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        ratio = spread / bounds[name]
        mark = ""
        if ratio > 1 / 3:
            mark = "  > bound/3"
            steady = False
        print(f"{name:<30}{mid:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3%}"
              f"{bounds[name]:>7}{ratio:>8.2f}{mark}")

    shares = {Fraction(result["failed"], result["attempted"]) for result in results}
    correct = all(result["correct"] for result in results)
    print(f"\nall correct: {correct}; failed shares: {sorted(str(share) for share in shares)}")
    if len(shares) != 1 or not correct:
        steady = False
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
