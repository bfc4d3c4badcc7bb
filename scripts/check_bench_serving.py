#!/usr/bin/env python3
"""Perf-regression gate for the batched serving hot path.

Runs the fbcload loopback benchmark in interleaved pairs -- the legacy
baseline stack (reference engine, serial admission, no fetch coalescing,
unbuffered wire loop) against the batched stack (incremental engine,
batched admission, coalesced fetches, buffered frame reader) -- and
fails when:

  * any run drops or fails a request (ok != requests or failed != 0);
  * the batched stack's best-of-N throughput falls below --ratio-floor
    times the baseline's best-of-N (the PR's >= 2x headline is measured
    on a quiet box; the CI floor is deliberately lower so shared-runner
    noise cannot flake the gate, while a real regression to parity still
    trips it);
  * the batched stack's best-case p99 latency regresses past
    --p99-slack times the baseline's best-case p99.

Interleaving (B,O,B,O,...) makes slow-machine noise hit both legs alike;
best-of-N per leg discards transient stalls rather than averaging them
in. With --out the measured legs are written as BENCH_serving.json for
the README numbers.

Usage: check_bench_serving.py [--fbcload=build/tools/fbcload] [options]
"""

import argparse
import json
import subprocess
import sys

BASELINE_FLAGS = [
    "--engine=reference",
    "--admission-batch=1",
    "--no-coalesce",
    "--legacy-wire",
    "--no-pipeline",
]


def run_fbcload(args, extra_flags):
    cmd = [
        args.fbcload,
        "--inline",
        "--json",
        f"--connections={args.connections}",
        f"--requests={args.requests}",
        f"--scenario={args.scenario}",
        f"--cache={args.cache}",
        f"--policy={args.policy}",
    ] + extra_flags
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"FAIL: {' '.join(cmd)} exited {proc.returncode}",
              file=sys.stderr)
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    runs = json.loads(proc.stdout)
    if not isinstance(runs, list) or len(runs) != 1:
        print(f"FAIL: unexpected fbcload JSON shape: {proc.stdout[:200]}",
              file=sys.stderr)
        sys.exit(1)
    return runs[0]


def check_run(run, label, failures):
    if run["failed"] != 0:
        failures.append(f"{label}: {run['failed']} failed request(s)")
    if run["ok"] != run["requests"]:
        failures.append(
            f"{label}: ok={run['ok']} != requests={run['requests']}")


def main():
    parser = argparse.ArgumentParser(
        description="serving-throughput regression gate")
    parser.add_argument("--fbcload", default="build/tools/fbcload")
    parser.add_argument("--pairs", type=int, default=3,
                        help="interleaved baseline/batched pairs (best-of)")
    parser.add_argument("--connections", type=int, default=8)
    parser.add_argument("--requests", type=int, default=8000)
    parser.add_argument("--scenario", default="henp")
    parser.add_argument("--cache", default="2GiB")
    parser.add_argument("--policy", default="optfb")
    parser.add_argument("--ratio-floor", type=float, default=1.5,
                        help="min batched/baseline best-of-N throughput")
    parser.add_argument("--p99-slack", type=float, default=1.25,
                        help="max batched/baseline best-case p99 ratio")
    parser.add_argument("--out", default="",
                        help="also write the measured legs as JSON here")
    args = parser.parse_args()

    failures = []
    baseline_runs, batched_runs = [], []
    for pair in range(args.pairs):
        base = run_fbcload(args, BASELINE_FLAGS)
        opt = run_fbcload(args, [])
        check_run(base, f"baseline[{pair}]", failures)
        check_run(opt, f"batched[{pair}]", failures)
        baseline_runs.append(base)
        batched_runs.append(opt)
        print(f"pair {pair}: baseline {base['throughput_rps']:.0f} rps "
              f"(p99 {base['p99_ms']:.3f} ms) | "
              f"batched {opt['throughput_rps']:.0f} rps "
              f"(p99 {opt['p99_ms']:.3f} ms)")

    best_base = max(r["throughput_rps"] for r in baseline_runs)
    best_opt = max(r["throughput_rps"] for r in batched_runs)
    ratio = best_opt / best_base if best_base > 0 else float("inf")
    # Best-case tails: min-of-N p99 per leg, so one noisy run on either
    # side cannot decide the comparison.
    p99_base = min(r["p99_ms"] for r in baseline_runs)
    p99_opt = min(r["p99_ms"] for r in batched_runs)

    print(f"best-of-{args.pairs}: baseline {best_base:.0f} rps, "
          f"batched {best_opt:.0f} rps, ratio {ratio:.2f}x "
          f"(floor {args.ratio_floor:.2f}x)")
    print(f"best-case p99: baseline {p99_base:.3f} ms, "
          f"batched {p99_opt:.3f} ms (slack {args.p99_slack:.2f}x)")

    if ratio < args.ratio_floor:
        failures.append(
            f"throughput ratio {ratio:.2f}x below floor "
            f"{args.ratio_floor:.2f}x "
            f"({best_opt:.0f} vs {best_base:.0f} rps)")
    if p99_opt > p99_base * args.p99_slack:
        failures.append(
            f"p99 regressed: batched {p99_opt:.3f} ms vs baseline "
            f"{p99_base:.3f} ms (slack {args.p99_slack:.2f}x)")

    if args.out:
        report = {
            "benchmark": "serving",
            "schema": 2,
            "scenario": args.scenario,
            "policy": args.policy,
            "connections": args.connections,
            "requests": args.requests,
            "pairs": args.pairs,
            "ratio_best_of_n": round(ratio, 3),
            "baseline_flags": BASELINE_FLAGS,
            "baseline_runs": baseline_runs,
            "batched_runs": batched_runs,
        }
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serving perf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
