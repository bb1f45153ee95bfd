#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the repository root):
    python3 sfbench/run.py --workload storm|federate|churn|all --seed N \
        --seconds S --trace 0|1

`all` runs the three workloads one after another.
The build goes to .bench_build/ under the repository root (incremental after
the first run).  Build output goes to stderr; the binary's standard output is
passed through, and its last line is the result object.  Exits non-zero when
the build fails or the binary reports a failure.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sfbench")
WORKLOADS = ["storm", "federate", "churn"]


def source_digest():
    """Digest of the program and benchmark sources: names the code a result
    (and storm's per-seed decision log) belongs to, with or without git."""
    digest = hashlib.sha256()
    for top in ("src", "sfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD],
        ["cmake", "--build", BUILD, "--target", "sfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("sfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build():
        return 1
    sys.stdout.flush()
    sha, digest = git_sha(), source_digest()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", BUILD, "--git-sha", sha, "--source-digest", digest]
        try:
            status = subprocess.run(cmd, cwd=ROOT, timeout=170).returncode or status
        except subprocess.TimeoutExpired:
            print("sfbench: workload %s timed out" % workload, file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
