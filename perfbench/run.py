#!/usr/bin/env python3
"""Builds psi_perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload p4_secure_sum --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(Release) and is incremental; its output goes to stderr, so the last line
of stdout is the benchmark's JSON result. PSI_THREADS is pinned to 2.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "psi_perfbench")
PSI_THREADS = "2"
RUN_TIMEOUT_S = 170


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the library sources (a benchmark checkout carries no .git)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "psi_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")) or not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, PSI_THREADS=PSI_THREADS)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
