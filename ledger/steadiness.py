#!/usr/bin/env python3
"""Steadiness check for the layer-ledger benchmark.

Runs each workload several times untraced, one seed per run, and prints
for every end-to-end metric its median, quartiles and spread -- the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median -- against the metric's bound in
BENCHMARK.json. With --sets 2 it repeats the whole series with the same
seeds and also compares the two medians: the second may not be worse than
the first by more than the bound.

    python3 ledger/steadiness.py                      # 10 seeds, all workloads
    python3 ledger/steadiness.py --workload zipf-cluster --runs 5
    python3 ledger/steadiness.py --sets 2 --json steadiness.json

A spread below a third of the bound is steady; a spread above the bound
(setup_s excepted: its spread is reported, its medians are compared) or a
median that moved by more than the bound fails, and the exit status is 1.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed):
    cmd = [sys.executable, str(ROOT / "ledger" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steadiness: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # Host CPU steal is printed in run.py's table, not in the result: it
    # is not a metric of the program, but it explains a disturbed run.
    for line in lines:
        fields = line.split()
        if "host.cpu_steal_pct" in fields:
            values["host.cpu_steal_pct"] = float(fields[-2])
    return values


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is, as a share of the first."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--json", help="also write every value here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seeds = list(range(1, args.runs + 1))

    values = {}  # (set, workload) -> metric -> [values]
    for s in range(args.sets):
        for workload in workloads:
            per_metric = {m["name"]: [] for m in metrics}
            for seed in seeds:
                run = run_once(workload, seed)
                for m in metrics:
                    per_metric[m["name"]].append(run[m["name"]])
                steal = run.get("host.cpu_steal_pct", float("nan"))
                print(f"set {s + 1} {workload} seed {seed}: steal={steal:.2f}% "
                      + " ".join(f"{m['name']}={run[m['name']]:.4g}"
                                 for m in metrics),
                      file=sys.stderr, flush=True)
            values[(s, workload)] = per_metric

    failed = False
    for workload in workloads:
        print(f"== {workload}: {args.runs} runs per set, seeds "
              f"{seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for m in metrics:
            bound = m["bound"]
            medians = []
            for s in range(args.sets):
                median, q1, q3, sp = spread(values[(s, workload)][m["name"]])
                medians.append(median)
                if m["name"] == "setup_s":
                    verdict = "(spread not bounded)"
                elif sp <= bound / 3:
                    verdict = "steady"
                elif sp <= bound:
                    verdict = "within bound, above a third of it"
                else:
                    verdict = "UNSTEADY: spread above bound"
                    failed = True
                print(f"  {m['name']:22s} {median:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {sp:8.4f} {bound:6g}  set {s + 1}: "
                      f"{verdict}")
            if args.sets == 2:
                moved = worse_by(medians[0], medians[1], m["better"])
                ok = moved <= bound
                failed = failed or not ok
                print(f"  {'':22s} second median worse by {moved:+.4f} "
                      f"(bound {bound}): {'agrees' if ok else 'DISAGREES'}")

    if args.json:
        Path(args.json).write_text(json.dumps(
            {f"set{s + 1}/{w}": v for (s, w), v in values.items()},
            indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
