#!/usr/bin/env python3
"""Multi-process shard-failure smoke for fbcgrid --spawn-remote.

Boots a real fleet -- fbcgrid forks four fbcd shard daemons and routes
to them over the wire -- then drives it with fbcload while one shard
daemon is SIGKILLed mid-run. The run passes only if

  * fbcload sees zero client-visible failures (exit 0) both during the
    kill and on a follow-up load against the degraded fleet,
  * the router actually rerouted around the dead shard
    (grid.acquire.rerouted > 0 in fbcctl metrics),
  * fbcgrid itself shuts down clean (exit 0: audits pass, the killed
    child is tolerated, the surviving children exit 0).

Usage: smoke_multiprocess.py [--build=build] [--requests=2000]
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import time

SHARDS = 4
SCENARIO = "henp"
CACHE = "2GiB"


def fail(msg):
    print(f"smoke_multiprocess: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def read_startup(grid):
    """Scrape child pids/ports and the router port from fbcgrid stdout."""
    children = []  # (shard, pid, port)
    router_port = None
    child_re = re.compile(r"fbcgrid: shard (\d+) pid=(\d+) port=(\d+)")
    listen_re = re.compile(r"fbcgrid: listening on 127\.0\.0\.1:(\d+)")
    deadline = time.time() + 30
    while time.time() < deadline:
        line = grid.stdout.readline()
        if not line:
            fail("fbcgrid exited before printing its listening line")
        sys.stdout.write(line)
        m = child_re.match(line)
        if m:
            children.append((int(m.group(1)), int(m.group(2)), int(m.group(3))))
            continue
        m = listen_re.match(line)
        if m:
            router_port = int(m.group(1))
            return children, router_port
    fail("timed out waiting for fbcgrid startup lines")


def run_load(build, port, requests, connections=8):
    return subprocess.run(
        [
            f"{build}/tools/fbcload",
            f"--port={port}",
            f"--scenario={SCENARIO}",
            f"--cache={CACHE}",
            "--time-scale=0",
            "-c",
            str(connections),
            "-n",
            str(requests),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def rerouted_count(build, port):
    out = subprocess.run(
        [f"{build}/tools/fbcctl", "metrics", f"--port={port}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        check=True,
    ).stdout
    m = re.search(r"grid\.acquire\.rerouted\s*\|?\s*(\d+)", out)
    return int(m.group(1)) if m else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build", default="build")
    parser.add_argument("--requests", type=int, default=2000)
    args = parser.parse_args()
    build = args.build

    grid = subprocess.Popen(
        [
            f"{build}/tools/fbcgrid",
            "--spawn-remote",
            f"--shards={SHARDS}",
            "--port=0",
            f"--scenario={SCENARIO}",
            f"--cache={CACHE}",
            "--time-scale=0",
            "--workers=8",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        children, router_port = read_startup(grid)
        if len(children) != SHARDS:
            fail(f"expected {SHARDS} shard children, saw {len(children)}")
        print(f"smoke_multiprocess: router on {router_port}, "
              f"children {[(c[1], c[2]) for c in children]}")

        # Load with a mid-run kill: give fbcload a head start, then
        # SIGKILL one shard daemon while requests are (likely) still in
        # flight. Client-visible failures are a hard fail either way.
        load = subprocess.Popen(
            [
                f"{build}/tools/fbcload",
                f"--port={router_port}",
                f"--scenario={SCENARIO}",
                f"--cache={CACHE}",
                "--time-scale=0",
                "--hold-ms=1",
                "-c", "8",
                "-n", str(args.requests),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        time.sleep(0.3)
        victim_shard, victim_pid, _ = children[1]
        print(f"smoke_multiprocess: SIGKILL shard {victim_shard} "
              f"(pid {victim_pid})")
        os.kill(victim_pid, signal.SIGKILL)
        out, _ = load.communicate(timeout=120)
        sys.stdout.write(out)
        if load.returncode != 0:
            fail(f"fbcload (kill mid-run) exited {load.returncode}")

        # A second load against the degraded fleet guarantees post-kill
        # traffic even if the first run finished before the kill landed,
        # and proves the grid keeps serving with a shard gone.
        second = run_load(build, router_port, args.requests)
        sys.stdout.write(second.stdout)
        if second.returncode != 0:
            fail(f"fbcload (degraded fleet) exited {second.returncode}")

        rerouted = rerouted_count(build, router_port)
        print(f"smoke_multiprocess: grid.acquire.rerouted = {rerouted}")
        if rerouted == 0:
            fail("router never rerouted around the killed shard")

        grid.send_signal(signal.SIGTERM)
        out, _ = grid.communicate(timeout=60)
        sys.stdout.write(out)
        if grid.returncode != 0:
            fail(f"fbcgrid exited {grid.returncode}")
        # Both loads above exited 0, so the surviving shards served jobs;
        # an exit report of 0 means it read shards that were already
        # closed.
        served = re.search(r"fbcgrid: served (\d+) shard requests", out)
        if served is None:
            fail("fbcgrid printed no 'served N shard requests' exit line")
        if int(served.group(1)) == 0:
            fail("fbcgrid's exit report says 0 shard requests were served")
        print("smoke_multiprocess: PASS")
    finally:
        if grid.poll() is None:
            grid.kill()
            grid.wait()


if __name__ == "__main__":
    main()
