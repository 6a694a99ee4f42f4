#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench (CMake, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, incrementally), runs one workload for S seconds,
reduces its raw measurements to the metrics named in BENCHMARK.json and
prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Lines before it, starting with '#', say how the run was measured. Exit
status: 0 correct, 1 a check failed (the result line still prints with
"correct": false), 2 the benchmark could not run (no result line).
"""

import argparse
import json
import os
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build incrementally; returns the binary path.
    Build output goes to stderr so stdout ends with the result line."""
    if not (ROOT / "src" / "harness" / "runner.hpp").exists():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")
    binary = out / "perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def run_raw(binary, workload, seed, seconds, trace, tiny=False, phase=None,
            timeout=RUN_TIMEOUT_S):
    """Runs perfbench and returns its raw JSON record and exit code."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:.3f}", "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if phase:
        cmd += ["--phase", phase]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:.0f} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing (exit {done.returncode})")
    try:
        return json.loads(lines[-1]), done.returncode
    except json.JSONDecodeError as e:
        fail(f"{workload} printed malformed output: {e}")


def run_measured(binary, workload, seed, seconds, tiny=False):
    """--trace 0: one judging process, then TIMING_PROCS timing processes
    sharing what is left of the budget. Returns the merged raw record and
    the worst exit code."""
    start = time.monotonic()
    raw, code = run_raw(binary, workload, seed, seconds, False, tiny, "judge")
    raw["procs"] = []
    for i in range(benchlib.TIMING_PROCS):
        left = seconds - (time.monotonic() - start)
        share = max(0.2, left / (benchlib.TIMING_PROCS - i))
        proc, proc_code = run_raw(binary, workload, seed, share, False, tiny,
                                  "time", timeout=RUN_TIMEOUT_S / 2)
        raw["procs"].append(proc)
        raw["errors"] = raw.get("errors", []) + proc.get("errors", [])
        if proc["timed_digest"] != raw["reference_digest"]:
            raw["errors"].append("timed unit's digest differs from the judged one")
        code = max(code, proc_code)
    reps = sum(len(p["unit_ns"]) for p in raw["procs"])
    mismatched = sum(p["mismatched_reps"] for p in raw["procs"])
    ops = raw["ops_per_unit"]
    # Timed repetitions reproduce the judged unit's digest, so their ops
    # inherit its verdicts.
    raw["attempted"] = raw["judged_ops"] + reps * ops
    raw["failed"] = raw["judged_ops"] - raw["passed_ops"] + mismatched * ops
    raw["pool_live_after_run"] = max(
        [raw.get("pool_live_after_run", 0)] +
        [p.get("pool_live_after_run", 0) for p in raw["procs"]])
    return raw, code


def reduce(raw, code, trace):
    """Raw record → (result object, human-readable note lines)."""
    errors = list(raw.get("errors", []))
    if code != 0 and not errors:
        errors.append(f"perfbench exited {code}")
    notes = []
    if trace:
        metrics = benchlib.per_layer(raw)
        layers = {k: m["value"] for k, m in metrics.items()}
        errors += benchlib.engagement(raw["workload"], layers)
        samples = raw["samples"]["host.unit_ns"]
        notes.append(f"# host: reps={len(samples)} quantile={benchlib.QUANTILE:g} "
                     f"interference_ratio={layers['host.interference_ratio']:.3f}")
        for gauge in raw.get("absent_on_engine", []):
            notes.append(f"# {gauge}: absent on the deployed engine "
                         f"(collect_run_stats omits it); read from the serial twin")
        spans = raw["values"]
        if spans["trace.window_spans_per_op"] > 0:
            notes.append(f"# tracer: {spans['trace.window_spans_per_op']:.1f} "
                         f"window spans and {spans['trace.migration_spans_per_op']:.1f} "
                         f"migration spans per op on the deployed engine")
        if raw["values"].get("trace.dropped", 0) > 0:
            notes.append(f"# trace ring dropped {raw['values']['trace.dropped']:.0f} "
                         f"records: span counts are lower bounds")
        attempted = int(raw["ops_per_unit"])
        failed = attempted if errors else 0
    else:
        metrics, info = benchlib.end_to_end(raw)
        notes.append(f"# host: reps={info['reps']} in {info['procs']} processes "
                     f"quantile={info['quantile']:g} "
                     f"interference_ratio={info['interference_ratio']:.3f} "
                     f"speed_factor={info['speed_factor']:.3f} "
                     f"(raw quiet unit {info['raw_quiet_ms']:.3f} ms)")
        notes.append(f"# sim: latency samples={info['latency_samples']} over "
                     f"{info['sim_units']:.0f} seeded units; judged ops="
                     f"{raw['judged_ops']:.0f}")
        attempted = int(raw["attempted"])
        failed = int(raw["failed"])
        if failed:
            errors.append(f"{failed} of {attempted} ops failed their checks")
        errors += raw.get("failures", [])[:5]
    for e in errors:
        notes.append(f"# FAILED: {e}")
    return benchlib.result_line(not errors, attempted, failed, metrics), notes


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="seconds-scale units (self-tests only)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args(argv)
    if args.self_test:
        suite = unittest.defaultTestLoader.discover(str(HERE / "tests"))
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1
    if args.workload is None or args.seconds < 1 or args.seed < 0:
        ap.error("--workload is required; --seconds >= 1; --seed >= 0")
    binary = build()
    if args.trace:
        raw, code = run_raw(binary, args.workload, args.seed, args.seconds,
                            True, args.tiny)
    else:
        raw, code = run_measured(binary, args.workload, args.seed,
                                 args.seconds, args.tiny)
    try:
        result, notes = reduce(raw, code, args.trace)
    except (benchlib.BenchError, KeyError) as e:
        fail(f"cannot reduce {args.workload} output: {e}")
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
