#!/usr/bin/env python3
"""Serving gate: the wire against the same server called in-process.

Runs fbcload in interleaved rounds of three legs over one job stream:

  W  --inline                  the wire: BundleDaemon + BundleClient
  D  --inline --direct         the same BundleServer, called in-process
  R  --inline --direct --engine=reference --admission-batch=1
                               the serial server the oracles replay

and fails when:

  * any run drops or fails a request (ok != requests or failed != 0);
  * the transport ratio, best W rps / best D rps, falls below
    TRANSPORT_FLOOR: the wire lost ground to the server it fronts
    (one send per reply, frame-at-a-time reads);
  * the server ratio, best D rps / best R rps, falls below
    SERVER_FLOOR: the served server lost its incremental engine or
    its batched admission;
  * W's best p99 / best p50 exceeds TAIL_SLACK times the same ratio in
    the capture. The in-process legs run more threads than cores with no
    loop in front, so their tails are worse than the wire's and cannot be
    the reference for its tail;
  * a leg's median request-hit or staged MiB per job is worse than the
    capture's median by more than the capture's own spread (max - min
    over its runs): the paper's two measures (sec. 5, Fig. 8) gated next
    to speed.

The capture (default BENCH_serving.json) must have been taken with this
run's settings, on a host with as many cores: the floors and the
capture's spread were measured there, and thread interleaving moves both
throughput and request-hit. Otherwise the gate fails before running
anything and says to re-capture, unless --out is given (re-capturing:
the capture checks are skipped) or --capture='' turns them off. Interleaving (W,D,R,W,D,R,...) makes
slow-machine noise hit every leg alike; best-of-N throughput discards
transient stalls rather than averaging them in. With --out the measured
legs are written as a capture (BENCH_serving.json, for the README
numbers).

Usage: check_bench_serving.py [--fbcload=build/tools/fbcload]
           [--rounds=N] [--requests=N] [--capture=FILE] [--out=FILE]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

LEGS = {
    "W": ["--inline"],
    "D": ["--inline", "--direct"],
    "R": ["--inline", "--direct", "--engine=reference",
          "--admission-batch=1"],
}
# The job stream every leg runs; the floors below hold for it only.
WORKLOAD = {"scenario": "henp", "policy": "optfb", "cache": "2GiB",
            "connections": 8}
# Set on a 4-core VM at 5 rounds: clean code read transport 0.427-0.495
# and server 1.75-1.96; one send per reply and frame-at-a-time reads read
# transport 0.361-0.400, --engine=reference on W and D server 0.98-1.02.
TRANSPORT_FLOOR = 0.42  # min best W / best D throughput
SERVER_FLOOR = 1.4      # min best D / best R throughput
TAIL_SLACK = 1.5        # max W p99/p50 as a multiple of the capture's


def run_fbcload(args, leg_flags):
    cmd = [args.fbcload, "--json", f"--requests={args.requests}"]
    cmd += [f"--{k}={v}" for k, v in WORKLOAD.items()] + leg_flags
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


def tail_ratio(runs):
    """Best p99 / best p50: one noisy run cannot decide either."""
    return min(r["p99_ms"] for r in runs) / min(r["p50_ms"] for r in runs)


def load_capture(path, settings):
    """The capture's runs per leg; raises ValueError when not comparable."""
    with open(path) as f:
        capture = json.load(f)
    if capture.get("schema") != 3:
        raise ValueError("not schema 3")
    differ = [f"{k} {capture.get(k)!r} (here {v!r})"
              for k, v in settings.items() if capture.get(k) != v]
    if differ:
        raise ValueError("taken with other " + ", ".join(differ))
    return {leg: capture["legs"][leg]["runs"] for leg in LEGS}


def check_quality(leg, runs, captured, failures):
    # (metric, +1 when higher is better)
    for metric, sign in (("request_hit_pct", 1), ("staged_mib_per_job", -1)):
        now = statistics.median(r[metric] for r in runs)
        ref = [r[metric] for r in captured]
        base = statistics.median(ref)
        spread = max(ref) - min(ref)
        worse_by = sign * (base - now)
        print(f"{leg} {metric}: median {now:.4g} vs capture {base:.4g} "
              f"(spread {spread:.3g})")
        if worse_by > spread:
            failures.append(
                f"{leg}: median {metric} {now:.4g} is worse than the "
                f"capture's {base:.4g} by {worse_by:.3g}, more than its "
                f"spread {spread:.3g}")


def main():
    parser = argparse.ArgumentParser(
        description="serving gate: wire vs in-process server")
    parser.add_argument("--fbcload", default="build/tools/fbcload")
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved W/D/R rounds (best-of)")
    parser.add_argument("--requests", type=int, default=40000)
    parser.add_argument("--capture", default="BENCH_serving.json",
                        help="checked-in capture to compare against "
                             "('' turns the capture checks off)")
    parser.add_argument("--out", default="",
                        help="re-capture: write the measured legs as JSON "
                             "here")
    args = parser.parse_args()

    settings = {**WORKLOAD, "requests": args.requests,
                "cpus": os.cpu_count()}
    captured = None
    if not args.capture:
        print("capture checks: off (--capture='')")
    else:
        try:
            captured = load_capture(args.capture, settings)
        except (OSError, ValueError, KeyError) as e:
            if not args.out:
                print(f"FAIL: cannot compare with {args.capture}: {e}. "
                      f"Re-capture on this host with --out={args.capture}, "
                      f"or pass --capture='' to turn the capture checks off",
                      file=sys.stderr)
                return 1
            print(f"capture checks: skipped while re-capturing "
                  f"({args.capture}: {e})")
    failures = []
    runs = {leg: [] for leg in LEGS}
    for i in range(args.rounds):
        line = []
        for leg, flags in LEGS.items():
            run = run_fbcload(args, flags)
            check_run(run, f"{leg}[{i}]", failures)
            runs[leg].append(run)
            line.append(f"{leg} {run['throughput_rps']:.0f} rps "
                        f"(hit {run['request_hit_pct']:.2f}%, "
                        f"p50 {run['p50_ms']:.3f} / "
                        f"p99 {run['p99_ms']:.3f} ms)")
        print(f"round {i}: " + " | ".join(line))

    best = {leg: max(r["throughput_rps"] for r in runs[leg]) for leg in LEGS}
    transport = best["W"] / best["D"]
    server = best["D"] / best["R"]
    tail = tail_ratio(runs["W"])
    print(f"best-of-{args.rounds}: " +
          ", ".join(f"{leg} {best[leg]:.0f} rps" for leg in LEGS))
    print(f"transport ratio W/D {transport:.3f} "
          f"(floor {TRANSPORT_FLOOR:.2f})")
    print(f"server ratio D/R {server:.3f} (floor {SERVER_FLOOR:.2f})")
    if transport < TRANSPORT_FLOOR:
        failures.append(f"transport ratio {transport:.3f} below floor "
                        f"{TRANSPORT_FLOOR:.2f}")
    if server < SERVER_FLOOR:
        failures.append(f"server ratio {server:.3f} below floor "
                        f"{SERVER_FLOOR:.2f}")

    if captured is not None:
        ceiling = TAIL_SLACK * tail_ratio(captured["W"])
        print(f"W tail p99/p50 {tail:.2f} (ceiling {ceiling:.2f})")
        if tail > ceiling:
            failures.append(f"W tail p99/p50 {tail:.2f} above ceiling "
                            f"{ceiling:.2f}")
        for leg in LEGS:
            check_quality(leg, runs[leg], captured[leg], failures)
    else:
        print(f"W tail p99/p50 {tail:.2f} (no capture ceiling)")

    if args.out:
        report = {
            "benchmark": "serving",
            "schema": 3,
            **settings,
            "rounds": args.rounds,
            "transport_ratio": round(transport, 3),
            "server_ratio": round(server, 3),
            "w_tail_ratio": round(tail, 3),
            "legs": {leg: {"flags": LEGS[leg], "runs": runs[leg]}
                     for leg in LEGS},
        }
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serving gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
