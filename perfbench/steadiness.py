#!/usr/bin/env python3
"""Steadiness report: run one workload K times and judge each metric's spread.

    python3 perfbench/steadiness.py --workload serve-3tier --runs 10

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the report prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json:

    steady   spread below a third of the bound
    ok       spread within the bound
    NOISY    spread above the bound

It also flags any host-time metric a run took from a single timed
window shorter than a second, read from the run's "window" lines.
Run it from the root of the checkout.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WINDOW = re.compile(r"^window (\S+) passes=(\d+) shortest_s=(\S+) "
                    r"total_s=(\S+)")


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def short_windows(stdout):
    """Host metrics whose every window came from one pass under 1 s."""
    flagged = []
    for line in stdout.splitlines():
        m = WINDOW.match(line)
        if m and int(m.group(2)) == 1 and float(m.group(3)) < 1.0:
            flagged.append(m.group(1))
    return flagged


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1]), proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, flagged, failed = {}, set(), 0
    for i in range(args.runs):
        seed = args.first_seed + i
        result, stdout = one_run(args.workload, seed, seconds)
        failed += result["failed"]
        flagged.update(short_windows(stdout))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"{seconds} s each")
    print(f"{'metric':34}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}  verdict")
    noisy = False
    for name in sorted(values):
        med, q1, q3, sp = spread(values[name])
        bound = bounds[name]
        if sp < bound / 3:
            verdict = "steady"
        elif sp <= bound:
            verdict = "ok"
        else:
            verdict, noisy = "NOISY", True
        print(f"{name:34}{med:14.6g}{q1:14.6g}{q3:14.6g}{sp:9.4f}"
              f"{bound:7.2f}  {verdict}")
    for name in sorted(flagged):
        print(f"FLAG: {name} was taken from a single timed window "
              "shorter than a second")
    if failed:
        print(f"FAILED CHECKS: {failed}")
    return 1 if noisy or flagged or failed else 0


if __name__ == "__main__":
    sys.exit(main())
