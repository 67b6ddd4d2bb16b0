#!/usr/bin/env python3
"""Tests for tools/check_bench.py against the committed BENCH_*.json files.

Each committed baseline must pass when compared against itself. Each entry
of MUTATIONS edits a copy of one baseline so that one kind of check breaks,
and the gate must exit 1 naming that check. The copies are built in a
temporary directory at test time.

Run: python3 tests/tools/check_bench_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GATE = os.path.join(ROOT, "tools", "check_bench.py")
NAMES = ("recovery", "transport", "dist", "bigint", "packing")


def baseline_path(name):
    return os.path.join(ROOT, f"BENCH_{name}.json")


def row(data, name):
    return next(b for b in data["benchmarks"] if b["name"] == name)


def set_counter(name, key, value):
    def edit(data):
        row(data, name)[key] = value

    return edit


def scale_counter(name, key, factor):
    def edit(data):
        row(data, name)[key] *= factor

    return edit


def drop_row(name):
    def edit(data):
        data["benchmarks"].remove(row(data, name))

    return edit


def drop_counter(name, key):
    def edit(data):
        del row(data, name)[key]

    return edit


def set_context(key, value):
    def edit(data):
        data["context"][key] = value

    return edit


def packed_decrypt_speedup(factor):
    """Sets packed decrypt throughput to `factor` x the unpacked one."""

    def edit(data):
        unpacked = row(data, "BM_PaillierDecrypt")["items_per_second"]
        row(data, "BM_PackedCounterDecrypt")["items_per_second"] = unpacked * factor

    return edit


# (baseline, check kind, edit to a copy of that baseline, text the gate prints)
MUTATIONS = [
    ("recovery", "== 1 invariant",
     set_counter("recovery/stage_resume", "ok", 0),
     "FAIL: scenario completes: recovery/stage_resume/ok = 0"),
    ("recovery", "cross-row equality",
     scale_counter("recovery/full_restart", "crypto_ops_recomputed", 2),
     "FAIL: full restart redoes exactly what stage resume saves"),
    ("transport", "cross-row equality",
     scale_counter("transport/socket_roundtrip", "wire_payload_bytes", 1.1),
     "FAIL: socket and simulator wire counters agree"),
    ("transport", "relay-overhead formula",
     set_counter("transport/socket_roundtrip", "relay_overhead_bytes", 16001),
     "FAIL: relay overhead follows the analytic model"),
    ("dist", "context formula",
     set_context("providers", 4),
     "FAIL: every provider stage runs on the daemon"),
    ("dist", "growth cap",
     scale_counter("dist/remote_session", "exec_bytes_tx", 2),
     "FAIL: grows at most 25% over the baseline: dist/remote_session/exec_bytes_tx"),
    ("transport", "zero-growth pin",
     set_counter("transport/reconnect_resume", "reconnect_attempts", 2),
     "FAIL: grows at most 0% over the baseline: "
     "transport/reconnect_resume/reconnect_attempts"),
    ("packing", "same-run ratio floor",
     scale_counter("BM_HomomorphicSumPacked", "bits_per_counter", 2),
     "FAIL: packing cuts metered bits per counter at least 8x"),
    ("bigint", "same-run ratio floor",
     set_counter("BM_MontgomeryPowPaired/1024", "heap_speedup", 1.9),
     "FAIL: the engine is at least 2x faster than the heap path: "
     "BM_MontgomeryPowPaired/1024/heap_speedup"),
    ("bigint", "RSA pair ratio floor",
     set_counter("BM_RsaDecryptPaired/512", "heap_speedup", 1.9),
     "FAIL: the engine is at least 2x faster than the heap path: "
     "BM_RsaDecryptPaired/512/heap_speedup"),
    ("packing", "baseline ratio floor",
     packed_decrypt_speedup(10),
     "FAIL: drops at most 25% below the baseline: "
     "BM_PackedCounterDecrypt/items_per_second"),
    ("recovery", "baseline ratio floor",
     scale_counter("recovery/stage_resume", "crypto_ops_total", 2),
     "FAIL: drops at most 25% below the baseline: "
     "recovery/stage_resume/crypto_ops_saved"),
    ("dist", "missing row",
     drop_row("dist/remote_resume"),
     "FAIL: benchmark 'dist/remote_resume' missing from results"),
    ("recovery", "missing counter",
     drop_counter("recovery/stage_resume", "crypto_ops_saved"),
     "FAIL: benchmark 'recovery/stage_resume' has no counter 'crypto_ops_saved'"),
    ("transport", "debug build",
     set_context("psi_build_type", "debug"),
     "was recorded from a 'debug' build"),
]


def run_gate(baseline, run):
    return subprocess.run(
        [sys.executable, GATE, "--baseline", baseline, "--run", run],
        capture_output=True,
        text=True,
    )


def write_mutant(directory, name, edit):
    """Writes BENCH_<name>.json with `edit` applied; returns its path."""
    with open(baseline_path(name)) as f:
        data = json.load(f)
    edit(data)
    path = os.path.join(directory, f"mutant_{name}.json")
    with open(path, "w") as f:
        json.dump(data, f)
    return path


class CheckBenchTest(unittest.TestCase):
    def test_every_baseline_passes_against_itself(self):
        for name in NAMES:
            with self.subTest(name=name):
                result = run_gate(baseline_path(name), baseline_path(name))
                self.assertEqual(result.returncode, 0, result.stderr)
                self.assertIn(f"OK: BENCH_{name}.json bench gate passed", result.stdout)

    def test_each_mutation_fails_its_check(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name, kind, edit, message in MUTATIONS:
                with self.subTest(name=name, kind=kind):
                    mutant = write_mutant(tmp, name, edit)
                    result = run_gate(baseline_path(name), mutant)
                    self.assertEqual(result.returncode, 1, result.stdout)
                    self.assertIn(message, result.stderr)

    def test_unknown_baseline_is_refused(self):
        result = run_gate(baseline_path("parallel"), baseline_path("parallel"))
        self.assertEqual(result.returncode, 1)
        self.assertIn("no spec for", result.stderr)


if __name__ == "__main__":
    unittest.main()
