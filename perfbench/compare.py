#!/usr/bin/env python3
"""Compares two sets of perfbench runs, refusing wall-clock comparisons
across mismatched run contexts.

    python3 perfbench/compare.py BASE.txt CHANGE.txt

Each file holds the captured stdout of one or more `perfbench/run.py`
runs (a context line followed by a result line per run). For every
workload and metric it prints both medians and their ratio. Counts and
bytes are compared whatever the context; wall-clock metrics (units ms, s,
us, 1/s, ratio) only when both sides ran with the same nproc, PSI_THREADS,
limb kernel, build type and compiler. A mismatch is reported and the
script exits 2.
"""

import json
import statistics
import sys

CONTEXT_KEYS = ("nproc", "psi_threads", "limb_kernel", "build_type",
                "compiler")
WALL_CLOCK_UNITS = {"ms", "s", "us", "1/s", "ratio"}


def load(path):
    """Returns ({workload: {metric: [values]}}, {workload: context tuple set},
    units)."""
    values, contexts, units = {}, {}, {}
    context = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "context" in doc:
                context = doc["context"]
                continue
            if "metrics" not in doc or context is None:
                continue
            workload = context["workload"]
            if not doc["correct"]:
                sys.exit(f"{path}: a {workload} run reported correct=false")
            contexts.setdefault(workload, set()).add(
                tuple(context[k] for k in CONTEXT_KEYS))
            for name, metric in doc["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
                units[name] = metric["unit"]
            context = None
    return values, contexts, units


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, base_ctx, units = load(sys.argv[1])
    change, change_ctx, _ = load(sys.argv[2])
    refused = False
    for workload in sorted(set(base) & set(change)):
        contexts = base_ctx[workload] | change_ctx[workload]
        same_context = len(contexts) == 1
        if not same_context:
            refused = True
            print(f"{workload}: contexts differ {sorted(contexts)}; "
                  "wall-clock metrics not compared")
        for name in sorted(set(base[workload]) & set(change[workload])):
            if units[name] in WALL_CLOCK_UNITS and not same_context:
                continue
            b = statistics.median(base[workload][name])
            c = statistics.median(change[workload][name])
            ratio = c / b if b else float("nan")
            print(f"{workload:16s} {name:36s} {b:14.6g} {c:14.6g} "
                  f"x{ratio:.4f} {units[name]}")
    return 2 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
