#!/usr/bin/env python3
"""Build and run the loopback SOAP benchmark.

    python3 perfbench/run.py --workload small_rpc --seed 1 --seconds 20 --trace 0

Builds both benchmark binaries from source (release profile, offline),
then runs the untraced one (``--trace 0``) or the traced one
(``--trace 1``) pinned to a single CPU, so client and servers share one
core. Its last line of output is the JSON summary. With ``--trace 1``
the raw spans of the first calls are written to
``perfbench/traces/<workload>-seed<seed>.jsonl``.

Run from the repository root. ``CARGO_TARGET_DIR`` is honoured.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("small_rpc", "table1_rpc", "bulk_upload", "bulk_download")


def run_timeout(seconds):
    """Seconds after which a run is killed: the binary measures for
    ``seconds`` and spends the rest on set-ups and, traced, one more chunk
    pair and the CPU-cost model. Up to 60 s of measuring this ends within
    180 s."""
    return 2 * seconds + 60


def build(binary, features):
    """Build one binary and return the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST,
        "--message-format=json-render-diagnostics",
        "--bin", binary,
    ] + features
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"run.py: building {binary} failed")
    for line in done.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == binary:
            return msg["executable"]
    sys.exit(f"run.py: cargo reported no executable for {binary}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    # Build both so the first run of a checkout pays for every build.
    untraced = build("soapbench", [])
    traced = build("soapbench-traced", ["--features", "trace"])

    cmd = [
        traced if args.trace == "1" else untraced,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.trace == "1":
        out = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--trace-out", out]

    # One core for the whole benchmark process: the client thread and
    # both servers' reactor threads always share it, so results do not
    # depend on how the scheduler spreads them over cores.
    cpu = max(os.sched_getaffinity(0))
    timeout = run_timeout(args.seconds)
    try:
        run = subprocess.run(cmd, timeout=timeout,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {os.path.basename(cmd[0])} did not finish within {timeout:g} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
