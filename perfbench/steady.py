"""Steadiness check: run each workload N times and compare spreads with bounds.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--seed-base 100]

For every workload it first makes one extra run (seed ``seed-base - 1``)
that is reported but excluded: the first process in a series can be an
outlier (cold page cache, bytecode compilation), and each run already
discards ``run.WARMUP_S`` seconds of warm-up traffic before timing.  Then
it makes ``--runs`` runs with seeds ``seed-base .. seed-base + N - 1``
and prints, per end-to-end metric, the median, the quartiles and their
distance as a share of the median, against the metric's bound in
``BENCHMARK.json``.  A spread above the bound is flagged ``OVER``, one
above a third of it ``WIDE``.  Exits 1 when any spread is over its bound
or a run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description="benchmark steadiness check")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    bad = 0
    for workload in args.workload or names:
        warm = one_run(workload, args.seed_base - 1, args.seconds)
        results = [
            one_run(workload, args.seed_base + i, args.seconds) for i in range(args.runs)
        ]
        wrong = [r for r in [warm, *results] if not r["correct"] or r["failed"]]
        bad += len(wrong)
        print(
            f"{workload}: {args.runs} runs of {args.seconds} s, {len(wrong)} with wrong answers",
            flush=True,
        )
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "OVER" if spread > bound else "WIDE" if spread > bound / 3 else "ok"
            if flag == "OVER":
                bad += 1
            first = warm["metrics"][name]["value"] / statistics.median(values)
            print(
                f"  {name:18s} median {median:11.5g} {metric['unit']:6s} "
                f"q1 {q1:11.5g} q3 {q3:11.5g} spread {spread:6.3f} "
                f"bound {bound:5.3f} {flag:4s} | excluded first run {first:5.3f}x median",
                flush=True,
            )
            print("    runs: " + " ".join(f"{v:.4g}" for v in values), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
