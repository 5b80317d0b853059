#!/usr/bin/env python3
"""Build and run the Mantle benchmark (see perfbench/README.md).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <stat-zipf|ingest|spark-commit> \
        --seed <n> --seconds <n> --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload in a
fresh child process whose environment holds no MANTLE_* variable, so no
constructor default can leak into the measured configuration. The child's
output is passed through; its last line is the JSON result. The exit code
is non-zero when the build fails, the run fails or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stat-zipf", "ingest", "spark-commit")
# The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def git_revision():
    """The commit being measured, or "unknown" outside a git checkout."""
    root = os.getcwd()
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True, cwd=root,
        ).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(root):
            return "unknown"
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, cwd=root,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir, CARGO_NET_OFFLINE="true")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"run.py: build failed (exit {proc.returncode})")
    binary = os.path.join(target_dir, "release", "perfbench")
    if not os.path.isfile(binary):
        sys.exit(f"run.py: build produced no {binary}")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(target_dir)
    env = {k: v for k, v in os.environ.items() if not k.startswith("MANTLE_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", ".bench_out", "--rev", git_revision()]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish in {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"run.py: {args.workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("run.py: malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if not result["correct"]:
        sys.exit("run.py: an output check failed")


if __name__ == "__main__":
    main()
