#!/usr/bin/env python3
"""Bench gate: checks a fresh bench JSON run against its committed baseline.

Usage: check_bench.py --baseline BENCH_<name>.json --run fresh.json

The baseline's file name picks the spec, SPECS[<name>]. Both files must come
from a Release build of the psi libraries (context key psi_build_type, or
google-benchmark's library_build_type in files that predate it); Debug
numbers gate nothing and are refused. A spec is a list of checks, each
comparing two values with ==, >= or <=:

  - same-run invariants: `ok == 1`, equality across rows, and analytic
    formulas such as relay_overhead_bytes == frames_relayed * 40;
  - same-run ratio floors: the engine or packed path at least k times
    faster or smaller than its reference, both measured in the run;
  - baseline comparisons: a ceiling for lower-is-better values and a floor
    for higher-is-better ones, at the baseline's value widened by 25%
    (MAX_REGRESSION) or pinned exactly (tolerance 0).

The gate needs no refusal for runs recorded on a different host (psi_nproc,
psi_threads and psi_limb_kernel are recorded but never read): no check
compares a wall-clock number across runs. Timings enter only as ratios of
two numbers from the same run, and every other value is a deterministic
counter (messages, bytes, crypto operations, frames, stages).

Adding a baseline: commit BENCH_<name>.json recorded by a Release build,
then add SPECS["<name>"] as a list of checks built from Field (a row's
counter), Context (a context key), `a / b` and `a * k`, using equal,
at_least, ceiling and floor. A missing row or counter fails the gate, so
the spec only names the values a check reads.
"""

import argparse
import json
import os
import re
import sys

MAX_REGRESSION = 0.25


class GateError(Exception):
    """A run the gate cannot evaluate: missing data or a Debug build."""


class Run:
    """One parsed bench JSON: benchmark rows by name, plus its context."""

    def __init__(self, path):
        with open(path) as f:
            data = json.load(f)
        self.context = data.get("context", {})
        build = self.context.get(
            "psi_build_type", self.context.get("library_build_type")
        )
        if build is None:
            raise GateError(
                f"{path} carries no psi_build_type/library_build_type "
                "context; re-record it with a current Release bench binary"
            )
        if build != "release":
            raise GateError(
                f"{path} was recorded from a '{build}' build; bench gates "
                "only accept Release numbers (cmake -DCMAKE_BUILD_TYPE=Release)"
            )
        self.rows = {b["name"]: b for b in data.get("benchmarks", [])}


class Value:
    """A number read from the fresh run (or, through Base, the baseline)."""

    def __truediv__(self, other):
        return Ratio(self, other)

    def __mul__(self, factor):
        return Scaled(self, factor)


class Const(Value):
    def __init__(self, number):
        self.number = number
        self.label = f"{number}"

    def read(self, run, base):
        return self.number


class Field(Value):
    """Counter `key` of benchmark row `row`."""

    def __init__(self, row, key):
        self.row, self.key = row, key
        self.label = f"{row}/{key}"

    def read(self, run, base):
        if self.row not in run.rows:
            raise GateError(f"benchmark '{self.row}' missing from results")
        value = run.rows[self.row].get(self.key)
        if value is None:
            raise GateError(f"benchmark '{self.row}' has no counter '{self.key}'")
        return value


class Context(Value):
    def __init__(self, key):
        self.key = key
        self.label = f"context.{key}"

    def read(self, run, base):
        if self.key not in run.context:
            raise GateError(f"context has no '{self.key}'")
        return int(run.context[self.key])


class Ratio(Value):
    def __init__(self, num, den):
        self.num, self.den = num, den
        self.label = f"{num.label} / {den.label}"

    def read(self, run, base):
        den = self.den.read(run, base)
        if den == 0:
            raise GateError(f"{self.den.label} is zero")
        return self.num.read(run, base) / den


class Scaled(Value):
    def __init__(self, value, factor):
        self.value, self.factor = value, factor
        self.label = f"{value.label} * {factor:g}"

    def read(self, run, base):
        return self.value.read(run, base) * self.factor


class Base(Value):
    """`value` as the baseline recorded it."""

    def __init__(self, value):
        self.value = value
        self.label = f"baseline {value.label}"

    def read(self, run, base):
        return self.value.read(base, base)


OPS = {
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
}


class Check:
    def __init__(self, left, op, right, why):
        self.left = left
        self.op = op
        self.right = right if isinstance(right, Value) else Const(right)
        self.why = why

    def run(self, run, base):
        """Returns (passed, report line)."""
        left = self.left.read(run, base)
        right = self.right.read(run, base)
        want = fmt(right)
        if not isinstance(self.right, Const):
            want = f"{self.right.label} = {want}"
        line = f"{self.why}: {self.left.label} = {fmt(left)}, want {self.op} {want}"
        return OPS[self.op](left, right), line


def fmt(number):
    return f"{number:.6g}" if isinstance(number, float) else f"{number}"


def equal(left, right, why):
    return Check(left, "==", right, why)


def at_least(left, right, why):
    return Check(left, ">=", right, why)


def ceiling(value, tolerance=MAX_REGRESSION):
    """Lower is better: the run may exceed the baseline by `tolerance`."""
    return Check(
        value,
        "<=",
        Base(value) * (1.0 + tolerance),
        f"grows at most {tolerance:.0%} over the baseline",
    )


def floor(value, tolerance=MAX_REGRESSION):
    """Higher is better: the run may fall below the baseline by `tolerance`."""
    return Check(
        value,
        ">=",
        Base(value) * (1.0 - tolerance),
        f"drops at most {tolerance:.0%} below the baseline",
    )


def completes(rows):
    return [equal(Field(r, "ok"), 1, "scenario completes") for r in rows]


# --- recovery: bench_recovery, Protocol 4 under a provider crash-restart. ---
NO_FAULT = "recovery/no_fault"
STAGE_RESUME = "recovery/stage_resume"
FULL_RESTART = "recovery/full_restart"

RECOVERY = [
    *completes((NO_FAULT, STAGE_RESUME, FULL_RESTART)),
    *[
        equal(Field(r, "result_matches_fault_free"), 1,
              "result matches the fault-free run bit for bit")
        for r in (NO_FAULT, STAGE_RESUME, FULL_RESTART)
    ],
    equal(Field(NO_FAULT, "attempts"), 1, "no-fault control runs once"),
    *[
        equal(Field(NO_FAULT, key), 0, "no-fault control is wire-invisible")
        for key in ("handshake_messages", "handshake_bytes", "backoff_rounds")
    ],
    at_least(Field(STAGE_RESUME, "resumes"), 1, "the probed crash forces a resume"),
    at_least(Field(STAGE_RESUME, "stages_resumed"), 1, "stage resume skips stages"),
    equal(Field(STAGE_RESUME, "crypto_ops_recomputed"), 0,
          "stage resume never redoes checkpointed crypto work"),
    at_least(Field(STAGE_RESUME, "crypto_ops_saved"), 1,
             "stage resume saves crypto work"),
    equal(Field(FULL_RESTART, "crypto_ops_saved"), 0,
          "full-restart ablation saves nothing"),
    at_least(Field(FULL_RESTART, "crypto_ops_recomputed"), 1,
             "full-restart ablation redoes crypto work"),
    equal(Field(FULL_RESTART, "crypto_ops_recomputed"),
          Field(STAGE_RESUME, "crypto_ops_saved"),
          "full restart redoes exactly what stage resume saves"),
    ceiling(Field(STAGE_RESUME, "handshake_messages")),
    ceiling(Field(STAGE_RESUME, "handshake_bytes")),
    floor(Field(STAGE_RESUME, "crypto_ops_saved")
          / Field(STAGE_RESUME, "crypto_ops_total")),
]

# --- transport: bench_transport, loopback sockets vs the simulator. ---------
SIM = "transport/simulator_roundtrip"
SOCK = "transport/socket_roundtrip"
RECONNECT = "transport/reconnect_resume"

# Each relayed protocol frame is framed twice (client -> daemon, echo back):
# a 12-byte transport header plus the 8-byte from/to routing prefix each way
# (docs/TRANSPORT.md).
RELAY_OVERHEAD_PER_FRAME = 2 * (12 + 8)

TRANSPORT = [
    *completes((SIM, SOCK, RECONNECT)),
    equal(Field(SOCK, "metering_matches_simulator"), 1,
          "socket backend meters like the simulator"),
    *[
        equal(Field(SOCK, key), Field(SIM, key),
              "socket and simulator wire counters agree")
        for key in ("wire_messages", "wire_bytes", "wire_payload_bytes")
    ],
    at_least(Field(SOCK, "frames_relayed"), 1, "frames cross the wire"),
    equal(Field(SOCK, "frames_echoed"), Field(SOCK, "frames_relayed"),
          "every relayed frame comes back"),
    equal(Field(SOCK, "frames_hairpinned"), Field(SOCK, "frames_relayed"),
          "the daemon hairpins every relayed frame"),
    equal(Field(SOCK, "daemon_protocol_violations"), 0,
          "a clean run has no protocol violations"),
    equal(Field(SOCK, "relay_overhead_bytes"),
          Field(SOCK, "frames_relayed") * RELAY_OVERHEAD_PER_FRAME,
          "relay overhead follows the analytic model"),
    at_least(Field(RECONNECT, "dead_peers_detected"), 1,
             "the dead daemon is detected"),
    equal(Field(RECONNECT, "reconnects"), 1, "the client reconnects once"),
    at_least(Field(RECONNECT, "resumed_hellos"), 1,
             "the restarted daemon sees a resume hello"),
    ceiling(Field(SOCK, "wire_messages")),
    ceiling(Field(SOCK, "wire_bytes")),
    ceiling(Field(SOCK, "frames_relayed")),
    ceiling(Field(SOCK, "relay_overhead_bytes")),
    # Reconnecting to a listening daemon stays a first-dial success.
    ceiling(Field(RECONNECT, "reconnect_attempts"), tolerance=0),
]

# --- dist: bench_dist, Protocol 6 stages executed on psid daemons. ----------
LOCAL = "dist/local_session"
HAIRPIN = "dist/hairpin_session"
REMOTE = "dist/remote_session"
RESUME = "dist/remote_resume"

DIST = [
    at_least(Context("providers"), 2, "the bench world has two or more providers"),
    equal(Context("providers"), Base(Context("providers")),
          "the bench world keeps the baseline's provider count"),
    *completes((LOCAL, HAIRPIN, REMOTE, RESUME)),
    *[
        equal(Field(r, "outputs_match"), 1, "output matches the simulator bitwise")
        for r in (HAIRPIN, REMOTE, RESUME)
    ],
    *[
        equal(Field(r, "metering_matches_simulator"), 1,
              "exec traffic stays out of protocol metering")
        for r in (HAIRPIN, REMOTE)
    ],
    *[
        equal(Field(r, key), Field(LOCAL, key), "wire counters match the simulator")
        for r in (HAIRPIN, REMOTE)
        for key in ("wire_messages", "wire_bytes")
    ],
    equal(Field(REMOTE, "remote_stages"), Context("providers"),
          "every provider stage runs on the daemon"),
    equal(Field(REMOTE, "degraded_to_local"), 0,
          "a clean remote run degrades no stage"),
    equal(Field(REMOTE, "timeouts"), 0, "a clean remote run hits no deadline"),
    at_least(Field(REMOTE, "remote_crypto_ops"), 1, "remote stages meter crypto ops"),
    equal(Field(REMOTE, "remote_crypto_ops"), Field(REMOTE, "daemon_crypto_ops"),
          "the host credits the crypto ops the daemon metered"),
    at_least(Field(REMOTE, "exec_calls"), 1, "the remote run makes exec calls"),
    equal(Field(RESUME, "resumes"), 1, "losing the daemon costs one resume"),
    equal(Field(RESUME, "handshake_messages"),
          Field(RESUME, "model_handshake_messages"),
          "the resume handshake costs what the analytic model says"),
    equal(Field(RESUME, "model_handshake_rounds"), 1,
          "the resume cost model prices one round"),
    equal(Field(RESUME, "crypto_ops_recomputed"), 0,
          "resume never redoes checkpointed crypto work"),
    at_least(Field(RESUME, "crypto_ops_saved"), 1, "resume saves checkpointed work"),
    at_least(Field(RESUME, "dead_peers_detected"), 1,
             "the crashed daemon is detected as a dead peer"),
    equal(Field(RESUME, "reconnects"), 1, "the resume scenario reconnects once"),
    ceiling(Field(REMOTE, "wire_messages")),
    ceiling(Field(REMOTE, "wire_bytes")),
    ceiling(Field(REMOTE, "exec_calls")),
    ceiling(Field(REMOTE, "exec_bytes_tx")),
    ceiling(Field(REMOTE, "exec_bytes_rx")),
    # Resume stays a single pinned handshake round.
    ceiling(Field(RESUME, "handshake_messages"), tolerance=0),
]

# --- bigint: bench_bigint, fixed-width engine vs the heap path. -------------
# Each *Paired row times engine and heap calls back to back and reports the
# median of the per-pair ratios as heap_speedup. The ratio of two separate
# rows' cpu_time, recorded seconds apart, swung from 1.16x to 3.12x across
# runs of one binary on a shared host.
BIGINT = [
    check
    for row in (
        "BM_MontgomeryPowPaired/1024",
        "BM_PaillierDecryptCrtPaired/1024",
        "BM_RsaDecryptPaired/512",
    )
    for check in (
        at_least(Field(row, "heap_speedup"), 2.0,
                 "the engine is at least 2x faster than the heap path"),
        floor(Field(row, "heap_speedup")),
    )
]

# --- packing: bench_micro, packed vs per-counter Paillier. ------------------
DECRYPT_SPEEDUP = Field("BM_PackedCounterDecrypt", "items_per_second") / Field(
    "BM_PaillierDecrypt", "items_per_second"
)
BITS_REDUCTION = Field("BM_HomomorphicSumUnpacked", "bits_per_counter") / Field(
    "BM_HomomorphicSumPacked", "bits_per_counter"
)

PACKING = [
    at_least(DECRYPT_SPEEDUP, 8.0,
             "packed decrypt delivers at least 8x the counters per second"),
    at_least(BITS_REDUCTION, 8.0,
             "packing cuts metered bits per counter at least 8x"),
    floor(DECRYPT_SPEEDUP),
]

SPECS = {
    "recovery": RECOVERY,
    "transport": TRANSPORT,
    "dist": DIST,
    "bigint": BIGINT,
    "packing": PACKING,
}


def gate(baseline_path, run_path):
    """Prints one line per check; returns the number of failed checks."""
    match = re.fullmatch(r"BENCH_(\w+)\.json", os.path.basename(baseline_path))
    spec = SPECS.get(match.group(1)) if match else None
    if spec is None:
        raise GateError(
            f"no spec for {baseline_path}; known baselines are "
            + ", ".join(f"BENCH_{name}.json" for name in SPECS)
        )
    base = Run(baseline_path)
    run = Run(run_path)
    failures = 0
    for check in spec:
        passed, line = check.run(run, base)
        if passed:
            print(f"ok: {line}")
        else:
            print(f"FAIL: {line}", file=sys.stderr)
            failures += 1
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--run", required=True)
    args = parser.parse_args()
    try:
        failures = gate(args.baseline, args.run)
    except GateError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    if failures:
        return 1
    print(f"OK: {os.path.basename(args.baseline)} bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
