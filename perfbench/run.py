#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/socbench from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build). A repetition is one socbench process: fresh deployment,
load, open-loop ladder, correctness gate. A run makes INPUTS repetitions
on distinct inputs derived from --seed, then repeats them in turn until
--seconds of wall time are used. Simulated metrics are the mean over the
INPUTS distinct inputs; every repeat of an input must reproduce its
simulated results and trace hash exactly. Wall-clock metrics are medians
over all repetitions.

With --trace 1 the run alternates untraced and traced repetitions of the
same input and requires their simulated results to match exactly; the
per-layer metrics come from the first input's traced repetition.

It prints a detail record, then as its last line one JSON object with
the metrics BENCHMARK.json lists: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. Exits non-zero if the build, the
correctness gate or a determinism check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = 3
# Whole-run budget: every repetition must end by then, or the run fails.
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    out = build_dir()
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", out, "-j", "4"]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed")
            sys.exit(2)
    return os.path.join(out, "socbench")


def fail(attempted, why):
    """Prints a failed result and exits."""
    log(f"perfbench: {why}")
    print(json.dumps({"correct": False, "attempted": max(1, attempted),
                      "failed": 1, "metrics": {}}))
    sys.exit(1)


def run_rep(binary, workload, seed, traced, timeout_s, attempted):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--traced", "1" if traced else "0"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(attempted, f"socbench seed {seed} did not finish in {timeout_s:.0f} s")
    lines = p.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: socbench exited {p.returncode} without a record")
        sys.exit(3)
    rec = json.loads(lines[-1])
    rec["exit_code"] = p.returncode
    return rec


def sim_signature(rec):
    return {"trace_hash": rec["trace_hash"], **rec["sim"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"perfbench: unknown workload {args.workload}")
        sys.exit(2)
    binary = build()

    # Input j of this run has socbench seed seed*INPUTS + j. Untraced: the
    # inputs in turn. Traced: each input untraced, then traced. Stop once
    # every input has run and the next repetition would overrun --seconds.
    def plan(i):
        if args.trace:
            return i // 2 % INPUTS, i % 2 == 1
        return i % INPUTS, False

    start = time.monotonic()
    min_reps = 2 if args.trace else INPUTS
    reps = []
    attempted = 0
    while True:
        j, traced = plan(len(reps))
        t0 = time.monotonic()
        rec = run_rep(binary, args.workload, args.seed * INPUTS + j, traced,
                      max(1.0, RUN_BUDGET_S - (t0 - start)), attempted)
        rec["input"] = j
        reps.append(rec)
        attempted += rec["attempted"]
        rep_s = time.monotonic() - t0
        if len(reps) >= min_reps and \
                time.monotonic() - start + rep_s > args.seconds:
            break

    first = {}
    mismatched = []
    for i, r in enumerate(reps):
        if first.setdefault(r["input"], sim_signature(r)) != sim_signature(r):
            mismatched.append(i)
    gate_failed = [i for i, r in enumerate(reps) if r["exit_code"] != 0]
    correct = not mismatched and not gate_failed

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    inputs = [next(r for r in reps if r["input"] == j) for j in sorted(first)]

    def med(key, rs):
        return statistics.median(r[key] for r in rs)

    wall_s = med("wall_s", plain)
    values = {
        "wall_s": wall_s,
        "setup_s": med("setup_s", plain),
        "peak_rss_mb": med("peak_rss_mb", plain),
    }
    for k in inputs[0]["sim"]:
        values[k] = statistics.fmean(r["sim"][k] for r in inputs)
    if traced:
        t0 = traced[0]
        u0 = next(r for r in plain if r["input"] == t0["input"])
        values.update(t0["layer"])
        values["sim.events"] = u0["sim"]["sim.events"]
        values["sim.events_per_wall_s"] = u0["sim"]["sim.events"] / u0["wall_s"]
        values["sim.wall_us_per_txn"] = u0["wall_s"] * 1e6 / u0["attempted"]
        pairs = [(u, t) for u, t in zip(reps[::2], reps[1::2])]
        values["trace.overhead_frac"] = statistics.median(
            t["wall_s"] / u["wall_s"] for u, t in pairs) - 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": [{"seed": r["seed"], "trace_hash": r["trace_hash"],
                    "errors_by_status": r["errors"], "rungs": r["rungs"],
                    "sim": r["sim"]} for r in inputs],
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "mismatched_repetitions": mismatched,
        "gate_failed_repetitions": gate_failed,
        "wall_s_each": [r["wall_s"] for r in plain],
        "setup_s_each": [r["setup_s"] for r in plain],
        "values": values,
    }
    print(json.dumps(record))

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in values:
            log(f"perfbench: metric {m['name']} was not measured")
            correct = False
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in inputs),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
