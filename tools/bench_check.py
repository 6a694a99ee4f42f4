#!/usr/bin/env python3
"""CI perf-regression gate over the committed BENCH_*.json baselines.

Compares freshly produced bench artifacts (BENCH_engine.json,
BENCH_shard.json, BENCH_dutycycle.json, ...) against the baselines
committed in the repository:

  * every ``*events_per_sec`` metric is checked as a ratio
    fresh / baseline — below ``--fail-ratio`` (default 0.5×) fails the
    gate, below ``--warn-ratio`` (default 0.8×) warns. The tolerance is
    deliberately generous: CI runners are noisy and the baselines were
    measured on different hardware; the gate exists to catch collapses
    (an accidentally quadratic hot path), not 10% wobble.
  * every determinism/digest-parity flag (``deterministic``,
    ``digest_parity``, ``parity``) must be true in the fresh artifact —
    a mismatch is a HARD failure regardless of throughput: it means a
    sharded or wheel-backed run diverged from its serial twin, which
    invalidates every measurement in the file.
  * metrics present in the baseline but missing fresh are hard failures
    too (a silently dropped bench is a silently dropped gate).
  * ``speedup`` metrics are compared only when both artifacts report the
    same top-level ``hardware_threads``: a parallel-engine speedup
    measured on an 8-core runner says nothing against a 1-core baseline,
    so a core-count mismatch warn-skips those comparisons instead of
    failing them. With matching cores, a speedup below 0.9× of the
    baseline warns and below ``--fail-ratio`` fails.
  * ``one_thread_speedup`` (BENCH_shard.json: the windowed engine on ONE
    thread vs the serial World — node-major dispatch alone, no
    parallelism) is compared only when both artifacts report the same
    ``hardware_threads``; otherwise it warn-skips. It uses the speedup
    thresholds above.
  * ``imbalance_mean`` (per-window max/min worker dispatches from the
    shard scheduler) fails when the fresh value is both > 2× the
    baseline and > 1.2 — a cost-aware policy that stopped balancing is
    a silent perf regression even when throughput wobble hides it.
  * ``peak_rss_kb`` (the large-n scale pin's process high-water mark)
    fails above 2× the baseline: memory is the other axis the flat-state
    refactor is accountable for, and a doubled footprint at n = 4096
    means a per-node structure quietly went quadratic.
  * the ``flat_state_baseline`` pin (BENCH_shard.json): the fresh n = 512
    serial throughput must be ≥ 1.2× the recorded map-based-core
    throughput — but only when the fresh run's ``hardware_threads``
    matches the pin's; cross-machine the comparison is meaningless and
    warn-skips.

stdlib-only by design: CI runs it straight from the checkout.

Usage:
  tools/bench_check.py --baseline . --fresh build [--files BENCH_engine.json BENCH_shard.json]
  tools/bench_check.py --self-test
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

THROUGHPUT_SUFFIX = "events_per_sec"
THROUGHPUT_EXTRA = ("scenarios_per_sec",)
PARITY_KEYS = ("deterministic", "digest_parity", "parity")
SPEEDUP_KEY = "speedup"
ONE_THREAD_KEY = "one_thread_speedup"
IMBALANCE_KEY = "imbalance_mean"
TRACEOFF_PREFIX = "traceoff_"
SPEEDUP_WARN_RATIO = 0.9
IMBALANCE_FAIL_RATIO = 2.0
IMBALANCE_FAIL_FLOOR = 1.2
RSS_KEY = "peak_rss_kb"
RSS_FAIL_RATIO = 2.0
FLAT_STATE_KEY = "flat_state_baseline"
FLAT_STATE_MIN_RATIO = 1.2
# Tracing compiled in but DISARMED must stay within noise of the baseline:
# its contract is one thread-local load and a branch per emission site, so a
# >5% dip on identical hardware means the tracer leaked onto the hot path.
# Only enforced when hardware_threads match — cross-machine, the generous
# standard ratios apply instead.
TRACEOFF_FAIL_RATIO = 0.95

OK, WARN, FAIL = "ok", "WARN", "FAIL"


def walk(node, path=""):
    """Yield (dotted_path, leaf_value) for every leaf of a JSON tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk(value, f"{path}[{i}]")
    else:
        yield path, node


def is_throughput(path):
    leaf = path.rsplit(".", 1)[-1]
    return leaf.endswith(THROUGHPUT_SUFFIX) or any(
        leaf.startswith(extra) for extra in THROUGHPUT_EXTRA
    )


def is_parity(path):
    return path.rsplit(".", 1)[-1] in PARITY_KEYS


def is_speedup(path):
    return path.rsplit(".", 1)[-1] == SPEEDUP_KEY


def is_one_thread(path):
    return path.rsplit(".", 1)[-1] == ONE_THREAD_KEY


def is_imbalance(path):
    return path.rsplit(".", 1)[-1] == IMBALANCE_KEY


def is_rss(path):
    return path.rsplit(".", 1)[-1] == RSS_KEY


def is_traceoff(path):
    return path.rsplit(".", 1)[-1].startswith(TRACEOFF_PREFIX)


def hardware_threads(artifact):
    return artifact.get("hardware_threads") if isinstance(artifact, dict) \
        else None


def check_flat_state_pin(name, fresh):
    """The flat-state refactor's own acceptance gate: the fresh n = 512
    serial throughput must clear FLAT_STATE_MIN_RATIO x the recorded
    map-based-core throughput pinned in ``flat_state_baseline`` — on
    matching hardware only."""
    pin = fresh.get(FLAT_STATE_KEY) if isinstance(fresh, dict) else None
    if not isinstance(pin, dict):
        return []
    map_eps = pin.get("n512_serial_events_per_sec")
    if not isinstance(map_eps, (int, float)) or map_eps <= 0:
        return [(FAIL, f"{name}: {FLAT_STATE_KEY} present but carries no "
                       f"positive n512_serial_events_per_sec")]
    if pin.get("hardware_threads") != hardware_threads(fresh):
        return [(WARN, f"{name}: flat-state pin skipped — fresh run's "
                       f"hardware_threads {hardware_threads(fresh)} differs "
                       f"from the pin's {pin.get('hardware_threads')}")]
    eps = [row.get("serial_events_per_sec")
           for row in (fresh.get("rows") or [])
           if isinstance(row, dict) and row.get("n") == 512
           and isinstance(row.get("serial_events_per_sec"), (int, float))]
    if not eps:
        return [(FAIL, f"{name}: {FLAT_STATE_KEY} pinned but no n = 512 row "
                       f"reports serial_events_per_sec — the gated bench "
                       f"silently vanished")]
    ratio = max(eps) / float(map_eps)
    line = (f"{name}: flat-state n512 serial {max(eps):.0f} ev/s vs "
            f"map-based pin {float(map_eps):.0f} ({ratio:.2f}x)")
    if ratio < FLAT_STATE_MIN_RATIO:
        return [(FAIL, f"{line} — below the {FLAT_STATE_MIN_RATIO}x "
                       f"flat-state floor on identical hardware")]
    return [(OK, line)]


def check_file(name, baseline, fresh, fail_ratio, warn_ratio):
    """Compare one artifact; returns a list of (severity, message)."""
    results = []
    fresh_leaves = dict(walk(fresh))
    results.extend(check_flat_state_pin(name, fresh))

    # Speedups only transfer between machines with the same core count: a
    # 1-core container legitimately measures ≈ 1× where an 8-core baseline
    # measured 3×. Warn-skip those comparisons instead of failing them.
    base_threads = hardware_threads(baseline)
    fresh_threads = hardware_threads(fresh)
    threads_differ = (base_threads is not None and fresh_threads is not None
                      and base_threads != fresh_threads)
    if threads_differ:
        results.append(
            (WARN, f"{name}: hardware_threads {fresh_threads} vs baseline "
                   f"{base_threads} — speedup comparisons skipped"))

    # Digest parity: checked on the FRESH artifact — the baseline being
    # green is not evidence about this run.
    for path, value in fresh_leaves.items():
        if is_parity(path):
            if value is True:
                results.append((OK, f"{name}:{path} parity holds"))
            else:
                results.append(
                    (FAIL, f"{name}:{path} DIGEST PARITY MISMATCH — a "
                           f"parallel/wheel run diverged from serial"))

    for path, base_value in walk(baseline):
        # A parity flag the baseline had but the fresh artifact dropped is
        # a silently dropped gate — hard failure, same as a dropped metric.
        if is_parity(path) and path not in fresh_leaves:
            results.append(
                (FAIL, f"{name}:{path} parity flag present in baseline but "
                       f"missing from the fresh artifact"))
            continue
        if not isinstance(base_value, (int, float)) or base_value <= 0:
            continue
        throughput = is_throughput(path)
        one_thread = is_one_thread(path)
        speedup = is_speedup(path) or one_thread
        imbalance = is_imbalance(path)
        rss = is_rss(path)
        if not (throughput or speedup or imbalance or rss):
            continue
        fresh_value = fresh_leaves.get(path)
        if fresh_value is None:
            results.append(
                (FAIL, f"{name}:{path} present in baseline but missing from "
                       f"the fresh artifact"))
            continue
        if imbalance:
            # Higher is worse here: imbalance is the scheduler's max/min
            # per-worker dispatch ratio, 1.0 = perfectly balanced.
            line = (f"{name}:{path} {float(fresh_value):.2f} vs baseline "
                    f"{float(base_value):.2f}")
            if (float(fresh_value) > IMBALANCE_FAIL_RATIO * float(base_value)
                    and float(fresh_value) > IMBALANCE_FAIL_FLOOR):
                results.append(
                    (FAIL, f"{line} — shard imbalance regressed (> "
                           f"{IMBALANCE_FAIL_RATIO}x baseline and > "
                           f"{IMBALANCE_FAIL_FLOOR})"))
            else:
                results.append((OK, line))
            continue
        if rss:
            # Higher is worse: the large-n scale pin's memory ceiling.
            line = (f"{name}:{path} {float(fresh_value):.0f} kB vs baseline "
                    f"{float(base_value):.0f} kB")
            if float(fresh_value) > RSS_FAIL_RATIO * float(base_value):
                results.append(
                    (FAIL, f"{line} — peak RSS above the {RSS_FAIL_RATIO}x "
                           f"ceiling: the large-n world's footprint blew up"))
            else:
                results.append((OK, line))
            continue
        if speedup and threads_differ:
            continue  # warned once above
        ratio = float(fresh_value) / float(base_value)
        line = (f"{name}:{path} {float(fresh_value):.2f} vs baseline "
                f"{float(base_value):.2f} ({ratio:.2f}x)")
        threads_match = (base_threads is not None
                         and base_threads == fresh_threads)
        if one_thread and not threads_match:
            results.append((WARN, f"{line} — skipped: hardware_threads not "
                                  f"recorded on both sides"))
            continue
        if throughput and is_traceoff(path) and threads_match:
            if ratio < TRACEOFF_FAIL_RATIO:
                results.append(
                    (FAIL, f"{line} — tracing-off throughput regressed >"
                           f"{(1 - TRACEOFF_FAIL_RATIO) * 100:.0f}% on "
                           f"identical hardware: disarmed emission sites "
                           f"leaked onto the hot path"))
            else:
                results.append((OK, line))
            continue
        effective_warn = SPEEDUP_WARN_RATIO if speedup else warn_ratio
        if ratio < fail_ratio:
            results.append((FAIL, f"{line} — below the {fail_ratio}x floor"))
        elif ratio < effective_warn:
            results.append((WARN, line))
        else:
            results.append((OK, line))
    return results


def run_gate(args):
    failures = 0
    for filename in args.files:
        baseline_path = os.path.join(args.baseline, filename)
        fresh_path = os.path.join(args.fresh, filename)
        try:
            with open(baseline_path) as f:
                baseline = json.load(f)
        except OSError as e:
            print(f"FAIL {filename}: cannot read baseline: {e}")
            failures += 1
            continue
        try:
            with open(fresh_path) as f:
                fresh = json.load(f)
        except OSError as e:
            print(f"FAIL {filename}: cannot read fresh artifact: {e}")
            failures += 1
            continue
        for severity, message in check_file(
                filename, baseline, fresh, args.fail_ratio, args.warn_ratio):
            print(f"{severity:>4} {message}")
            if severity == FAIL:
                failures += 1
    if failures:
        print(f"bench_check: {failures} failure(s)")
        return 1
    print("bench_check: all gates passed")
    return 0


# --- self-test ---------------------------------------------------------------

GOOD_BASELINE = {
    "raw_dispatch": {"in_flight_64": {"slab_events_per_sec": 30e6}},
    "timer_saturation": {"in_flight_1024": {"wheel_events_per_sec": 4e6}},
    "sweep": {"scenarios_per_sec_t4": 1000.0, "deterministic": True},
}


def self_test():
    """Exercise the gate end-to-end through the real CLI path, including the
    non-zero exit on a seeded digest mismatch (the CI acceptance check)."""

    def run_cli(baseline, fresh):
        with tempfile.TemporaryDirectory() as base_dir, \
                tempfile.TemporaryDirectory() as fresh_dir:
            with open(os.path.join(base_dir, "B.json"), "w") as f:
                json.dump(baseline, f)
            with open(os.path.join(fresh_dir, "B.json"), "w") as f:
                json.dump(fresh, f)
            return main(["--baseline", base_dir, "--fresh", fresh_dir,
                         "--files", "B.json"])

    import copy

    checks = []

    # 1. Identical artifacts pass.
    checks.append(("identical artifacts pass",
                   run_cli(GOOD_BASELINE, GOOD_BASELINE) == 0))

    # 2. A mild dip (0.7x) warns but does not fail.
    dip = copy.deepcopy(GOOD_BASELINE)
    dip["raw_dispatch"]["in_flight_64"]["slab_events_per_sec"] *= 0.7
    checks.append(("0.7x dip only warns", run_cli(GOOD_BASELINE, dip) == 0))

    # 3. A collapse (0.3x) fails.
    collapse = copy.deepcopy(GOOD_BASELINE)
    collapse["timer_saturation"]["in_flight_1024"]["wheel_events_per_sec"] *= 0.3
    checks.append(("0.3x collapse fails",
                   run_cli(GOOD_BASELINE, collapse) != 0))

    # 4. A seeded digest mismatch hard-fails even with healthy throughput.
    mismatch = copy.deepcopy(GOOD_BASELINE)
    mismatch["sweep"]["deterministic"] = False
    checks.append(("digest mismatch exits non-zero",
                   run_cli(GOOD_BASELINE, mismatch) != 0))

    # 5. A dropped metric fails.
    dropped = copy.deepcopy(GOOD_BASELINE)
    del dropped["timer_saturation"]
    checks.append(("dropped metric fails",
                   run_cli(GOOD_BASELINE, dropped) != 0))

    # 6. A dropped parity flag fails too (a gate that vanished is not green).
    unparitied = copy.deepcopy(GOOD_BASELINE)
    del unparitied["sweep"]["deterministic"]
    checks.append(("dropped parity flag fails",
                   run_cli(GOOD_BASELINE, unparitied) != 0))

    # 7. Speedups are skipped (warn only) when the core counts differ —
    #    a 1-core container vs an 8-core baseline is not a regression.
    shard_base = {
        "hardware_threads": 8,
        "rows": [{"n": 32, "sched": "steal", "speedup": 3.1,
                  "imbalance_mean": 1.05, "parity": True}],
    }
    one_core = copy.deepcopy(shard_base)
    one_core["hardware_threads"] = 1
    one_core["rows"][0]["speedup"] = 0.97
    checks.append(("speedup skipped on core-count mismatch",
                   run_cli(shard_base, one_core) == 0))

    # 8. With MATCHING core counts a collapsed speedup fails.
    slow = copy.deepcopy(shard_base)
    slow["rows"][0]["speedup"] = 0.9  # 0.29x of the 3.1 baseline
    checks.append(("speedup collapse fails on same hardware",
                   run_cli(shard_base, slow) != 0))

    # 9. A scheduler that stopped balancing fails the imbalance gate…
    skewed = copy.deepcopy(shard_base)
    skewed["rows"][0]["imbalance_mean"] = 6.0
    checks.append(("imbalance regression fails",
                   run_cli(shard_base, skewed) != 0))
    #    …but wobble above a near-1.0 baseline stays below the 1.2 floor.
    wobble = copy.deepcopy(shard_base)
    wobble["rows"][0]["imbalance_mean"] = 1.15
    checks.append(("imbalance wobble under the floor passes",
                   run_cli(shard_base, wobble) == 0))

    # 10. The disarmed-tracer gate: on identical hardware a 7% traceoff dip
    #     fails even though it is far above the generous 0.5x floor…
    trace_base = {
        "hardware_threads": 8,
        "trace_overhead": {"traceoff_events_per_sec": 3.0e6,
                           "traceon_events_per_sec": 2.7e6},
    }
    leaked = copy.deepcopy(trace_base)
    leaked["trace_overhead"]["traceoff_events_per_sec"] *= 0.93
    checks.append(("traceoff 7% dip fails on same hardware",
                   run_cli(trace_base, leaked) != 0))
    #     …a 3% wobble passes…
    wobbly = copy.deepcopy(trace_base)
    wobbly["trace_overhead"]["traceoff_events_per_sec"] *= 0.97
    checks.append(("traceoff 3% wobble passes",
                   run_cli(trace_base, wobbly) == 0))
    #     …and across different machines only the standard ratios apply.
    other_machine = copy.deepcopy(leaked)
    other_machine["hardware_threads"] = 2
    checks.append(("traceoff dip tolerated across machines",
                   run_cli(trace_base, other_machine) == 0))
    #     traceon throughput stays under the standard generous gate: tracing
    #     ON is allowed to cost something.
    traced_slower = copy.deepcopy(trace_base)
    traced_slower["trace_overhead"]["traceon_events_per_sec"] *= 0.85
    checks.append(("traceon dip stays a warning",
                   run_cli(trace_base, traced_slower) == 0))

    # 11. The large-n RSS ceiling: within 2x passes, above it fails, and a
    #     dropped peak_rss_kb is a dropped gate.
    rss_base = {
        "hardware_threads": 8,
        "large_n": {"n": 4096, "serial_events_per_sec": 1.0e5,
                    "peak_rss_kb": 900_000, "parity": True},
    }
    heavier = copy.deepcopy(rss_base)
    heavier["large_n"]["peak_rss_kb"] = 1_500_000
    checks.append(("peak RSS within 2x passes",
                   run_cli(rss_base, heavier) == 0))
    blown = copy.deepcopy(rss_base)
    blown["large_n"]["peak_rss_kb"] = 2_000_000
    checks.append(("peak RSS above 2x ceiling fails",
                   run_cli(rss_base, blown) != 0))
    no_rss = copy.deepcopy(rss_base)
    del no_rss["large_n"]["peak_rss_kb"]
    checks.append(("dropped peak RSS metric fails",
                   run_cli(rss_base, no_rss) != 0))

    # 12. The flat-state pin: on the pin's hardware the n = 512 serial row
    #     must clear 1.2x the recorded map-based throughput; cross-machine
    #     the pin warn-skips; a vanished n = 512 row fails.
    flat_base = {
        "hardware_threads": 1,
        "rows": [{"n": 512, "sched": "static",
                  "serial_events_per_sec": 200_000.0, "parity": True}],
        "flat_state_baseline": {"commit": "d9dfa12", "hardware_threads": 1,
                                "n512_serial_events_per_sec": 158_726},
    }
    checks.append(("flat-state pin passes at 1.26x",
                   run_cli(flat_base, flat_base) == 0))
    too_slow = copy.deepcopy(flat_base)
    too_slow["rows"][0]["serial_events_per_sec"] = 170_000.0  # 1.07x
    checks.append(("flat-state pin fails below 1.2x",
                   run_cli(flat_base, too_slow) != 0))
    other_hw = copy.deepcopy(flat_base)
    other_hw["hardware_threads"] = 8
    checks.append(("flat-state pin skipped cross-machine",
                   run_cli(flat_base, other_hw) == 0))
    no_row = copy.deepcopy(flat_base)
    no_row["rows"] = []
    checks.append(("flat-state pin fails when the n512 row vanished",
                   run_cli(flat_base, no_row) != 0))

    # 13. The one-thread node-major column: gated on matching
    #     hardware_threads only — a collapse fails there, is warn-skipped
    #     across machines, and a dropped column fails.
    one_base = {
        "hardware_threads": 4,
        "rows": [{"n": 512, "one_thread_speedup": 1.9, "parity": True}],
    }
    one_slow = copy.deepcopy(one_base)
    one_slow["rows"][0]["one_thread_speedup"] = 0.8  # 0.42x of baseline
    checks.append(("one-thread speedup collapse fails on same hardware",
                   run_cli(one_base, one_slow) != 0))
    one_other = copy.deepcopy(one_slow)
    one_other["hardware_threads"] = 16
    checks.append(("one-thread speedup skipped cross-machine",
                   run_cli(one_base, one_other) == 0))
    one_unrecorded = copy.deepcopy(one_slow)
    del one_unrecorded["hardware_threads"]
    checks.append(("one-thread speedup skipped without hardware_threads",
                   run_cli(one_base, one_unrecorded) == 0))
    one_dropped = copy.deepcopy(one_base)
    del one_dropped["rows"][0]["one_thread_speedup"]
    checks.append(("dropped one-thread speedup fails",
                   run_cli(one_base, one_dropped) != 0))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok' if ok else 'FAIL':>4} self-test: {name}")
    if failed:
        print(f"bench_check --self-test: {len(failed)} self-check(s) failed")
        return 1
    print("bench_check --self-test: all self-checks passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=".",
                        help="directory holding the committed baselines")
    parser.add_argument("--fresh", default=".",
                        help="directory holding the freshly produced JSONs")
    parser.add_argument("--files", nargs="+",
                        default=["BENCH_engine.json", "BENCH_shard.json",
                                 "BENCH_ablation.json", "BENCH_quorum.json",
                                 "BENCH_dutycycle.json"])
    parser.add_argument("--fail-ratio", type=float, default=0.5)
    parser.add_argument("--warn-ratio", type=float, default=0.8)
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in gate-behavior checks")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
