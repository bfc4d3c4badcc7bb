#!/usr/bin/env python3
"""Layer-ledger benchmark: builds fbc_ledger from source and runs it.

Run from the root of a checkout:

    python3 ledger/run.py --workload henp-wire --seed 1 --seconds 10 --trace 0
    python3 ledger/run.py                      # every workload, both modes

With one workload, the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Every
metric the run measured is printed above it, by name with its unit. With
--workload all (the default), every workload of BENCHMARK.json runs
untraced and traced and the result object holds every metric as
"<workload>/<metric>".

The program is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) from ledger/CMakeLists.txt, which compiles ../src.

Exit status: 0 when every output check passed, 1 when a check failed
(the result line then has "correct": false), 2 for a usage, build or
set-up error, 3 when the run wedged (watchdog) or overran its time limit.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


class BenchError(Exception):
    def __init__(self, message, status=2):
        super().__init__(message)
        self.status = status


def log(message):
    print(f"ledger: {message}", file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds fbc_ledger; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"fbcache sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "ledger"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "fbc_ledger",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError(f"build step {' '.join(cmd[:3])} exited "
                             f"{proc.returncode}")
    return out / "fbc_ledger"


def run_program(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the program's JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", str(build_dir() / "spans")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"watchdog: {workload} did not finish within "
                         f"{RUN_TIMEOUT_S} s (wedged stack)", status=3)
    if proc.returncode not in (0, 1):
        raise BenchError(f"{workload}: fbc_ledger exited {proc.returncode}",
                         status=3 if proc.returncode == 3 else 2)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: fbc_ledger printed no record")
    return record


def select(record, names_units, workload):
    """The record's metrics named by BENCHMARK.json, with units checked."""
    out = {}
    for name, unit in names_units:
        metric = record["metrics"].get(name)
        if metric is None:
            raise BenchError(f"{workload}: metric {name} was not measured")
        if metric["unit"] != unit:
            raise BenchError(f"{workload}: metric {name} has unit "
                             f"{metric['unit']}, BENCHMARK.json says {unit}")
        if not math.isfinite(metric["value"]):
            raise BenchError(f"{workload}: metric {name} is not finite")
        out[name] = {"value": metric["value"], "unit": unit}
    return out


def print_table(workload, trace, record, contract):
    print(f"== {workload} (trace={trace}, seed={record['seed']}): "
          f"{'correct' if record['correct'] else 'CHECKS FAILED'}, "
          f"{record['attempted']} jobs attempted, {record['failed']} failed")
    for name, metric in sorted(record["metrics"].items()):
        mark = "*" if name in contract else " "
        print(f"  {mark} {name:34s} {metric['value']:>16.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    lists = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
             1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}

    binary = build()
    if args.workload != "all":
        trace = args.trace if args.trace is not None else 0
        record = run_program(binary, args.workload, args.seed, seconds,
                             trace)
        contract = select(record, lists[trace], args.workload)
        print_table(args.workload, trace, record, contract)
        print(json.dumps({"correct": record["correct"],
                          "attempted": record["attempted"],
                          "failed": record["failed"],
                          "metrics": contract}))
        return 0 if record["correct"] else 1

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    traces = [args.trace] if args.trace is not None else [0, 1]
    for workload in names:
        for trace in traces:
            record = run_program(binary, workload, args.seed, seconds, trace)
            contract = select(record, lists[trace], workload)
            print_table(workload, trace, record, contract)
            result["correct"] = result["correct"] and record["correct"]
            result["attempted"] += record["attempted"]
            result["failed"] += record["failed"]
            for name, metric in contract.items():
                result["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(str(e))
        sys.exit(e.status)
