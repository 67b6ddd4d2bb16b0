#!/usr/bin/env python3
"""Smoke test of the session benchmark: short runs of every workload.

    python3 perfbench/smoke_test.py

Checks, per workload, that a 1-second run with --trace 0 prints every
end_to_end metric of BENCHMARK.json and a --trace 1 run every per_layer
metric, each with its declared unit; that no session failed; that the
session-0 metering digest repeats for the same seed; and that p4_remote's
protocol transcript digest equals p4_secure_sum's. Exits 1 on the first
failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    digests = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            context, result = run(workload, trace)
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"FAIL {workload} trace={trace}: {context['checks']}")
            if result["attempted"] < 1 or context["failed_share"] != 0:
                sys.exit(f"FAIL {workload} trace={trace}: no clean session")
            for metric in bench[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    sys.exit(f"FAIL {workload}: {metric['name']} missing or "
                             f"wrong unit ({got})")
            extra = set(result["metrics"]) - {m["name"] for m in bench[key]}
            if extra:
                sys.exit(f"FAIL {workload}: undeclared metrics {sorted(extra)}")
            digest = digests.setdefault(workload, context["session0_digest"])
            if digest != context["session0_digest"]:
                sys.exit(f"FAIL {workload}: session-0 metering did not repeat")
        print(f"ok {workload} digest={digests[workload]}")
    if digests.get("p4_remote") != digests.get("p4_secure_sum"):
        sys.exit("FAIL p4_remote transcript differs from p4_secure_sum")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
