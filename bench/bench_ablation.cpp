// E8 — Ablations on the design choices DESIGN.md calls out.
//
// A1: Block R freshness window — Fig. 1's literal 4d vs our shipped 5d
//     (what IA-1D actually supports). Under delay jitter at the bound, the
//     4d variant strands nodes whose I-accept arrives "stale": they detour
//     through the S-path (slower) or — when only the General passed R —
//     abort while the General decided, breaking Agreement. The 5d variant
//     keeps everyone on the fast path.
//
// A2: cleanup/decay blocks on vs off — the self-stabilization machinery.
//     From a clean boot both variants agree; from a scrambled state the
//     no-cleanup variant never converges (stale last(G)/last(G,m)/ready
//     values block Block K forever), which is precisely the paper's point.
//     Two scramble scenarios: "busy" (General 0 proposes from ι0 on; a run
//     converges on its first unanimous execution) and "quiet" (no input
//     until ι0 + ∆stb, then one proposal; a run converges when every
//     correct node decides it and no decision after ∆stb disagrees — the
//     paper's convergence claim). Only in the quiet one must time alone,
//     through the decay rules, remove the planted state.
//
// Sweep-native: every case is one Scenario × seeds on the SweepRunner
// worker pool (one independent World per trial, all cores, per_run hook
// for the per-trial outcome accounting). Results go to stdout and
// BENCH_ablation.json (registered with tools/bench_check.py: the
// events_per_sec aggregate is ratio-gated, the deterministic flag — the A2
// chaos scenario re-run through the sharded handoff engine — is a hard
// digest-parity gate).
//
// Exit 1 (after writing the artifact) on a parity mismatch, or — printing
// "E8 FAIL" — when an ablation stops showing its point: A2 with cleanup on
// converges in fewer than all runs, A2 with cleanup off converges in every
// run — each in both A2 scenarios — or A1's shipped 5d row is below 100 %
// unanimous or has a mixed decide/abort outcome. The literal-4d row is
// measured, not gated.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "util/stats.hpp"

namespace ssbft {
namespace {

struct R1Result {
  SampleSet latency;
  std::uint32_t trials = 0;
  std::uint32_t unanimous = 0;
  std::uint32_t mixed_outcome = 0;  // someone decided, someone aborted
  double events_per_sec = 0;
};

Scenario r1_scenario(Duration window) {
  Scenario sc;
  sc.n = 7;
  sc.f = 2;
  sc.with_tail_faults(2);
  // Stress case: actual delays spread right up to the bound δ.
  sc.link_delay = DelayModel::uniform(sc.delta / 5, sc.delta);
  sc.r1_window = window;
  sc.with_proposal(milliseconds(5), 0, 7);
  sc.run_for = milliseconds(300);
  return sc;
}

R1Result run_r1(Duration window, std::uint32_t trials, std::uint64_t seed0) {
  R1Result result;
  std::mutex mu;
  SweepSpec spec;
  spec.scenarios = {r1_scenario(window)};
  spec.seeds_per_scenario = trials;
  spec.seed0 = seed0;
  spec.threads = 0;  // all cores; each trial is an independent World
  spec.per_run = [&](const SweepRun&, Cluster& cluster) {
    const RealTime t0 = cluster.proposals().empty()
                            ? RealTime::zero()
                            : cluster.proposals()[0].real_at;
    std::uint32_t decided = 0, aborted = 0;
    const std::lock_guard<std::mutex> lock(mu);
    ++result.trials;
    for (const auto& d : cluster.decisions()) {
      if (d.decision.decided()) {
        ++decided;
        result.latency.add(d.real_at - t0);
      } else {
        ++aborted;
      }
    }
    if (decided == cluster.correct_count()) ++result.unanimous;
    if (decided > 0 && aborted > 0) ++result.mixed_outcome;
  };
  const SweepReport report = SweepRunner(spec).run();
  result.events_per_sec = report.events_per_sec;
  return result;
}

struct CleanupResult {
  std::uint32_t runs = 0;
  std::uint32_t converged = 0;  // unanimous correct decision post-scramble
  double events_per_sec = 0;
  std::uint32_t quiet_runs = 0;
  std::uint32_t quiet_converged = 0;
};

Scenario scrambled_scenario(bool enabled) {
  Scenario sc;
  sc.n = 7;
  sc.f = 2;
  sc.with_tail_faults(2);
  sc.cleanup_enabled = enabled;
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 48;
  sc.chaos_period = milliseconds(8);
  return sc;
}

Scenario cleanup_scenario(bool enabled, std::uint32_t shards = 0) {
  Scenario sc = scrambled_scenario(enabled);
  sc.shards = shards;
  if (shards > 0) {
    // The delay floor that lets the post-chaos suffix shard (handoff
    // engine); digest parity vs the serial twin is the bench's
    // determinism gate.
    sc.link_delay =
        DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
  }
  const Params params = sc.make_params();
  const Duration gap = params.delta_0() + 5 * params.d();
  const std::uint32_t rounds = 72;
  for (std::uint32_t i = 0; i < rounds; ++i) {
    sc.with_proposal(sc.chaos_period + milliseconds(1) + i * gap, 0,
                     1000 + Value(i));
  }
  sc.run_for = sc.chaos_period + rounds * gap + milliseconds(100);
  return sc;
}

CleanupResult run_cleanup(bool enabled, std::uint32_t trials,
                          std::uint64_t seed0) {
  CleanupResult result;
  std::mutex mu;
  SweepSpec spec;
  spec.scenarios = {cleanup_scenario(enabled)};
  spec.seeds_per_scenario = trials;
  spec.seed0 = seed0;
  spec.threads = 0;
  spec.per_run = [&](const SweepRun&, Cluster& cluster) {
    // Analyze outside the lock — cluster_executions is the expensive part
    // and runs per worker; the mutex guards only the counter merge.
    bool converged = false;
    for (const auto& e :
         cluster_executions(cluster.decisions(), cluster.params())) {
      if (e.general.node == 0 &&
          e.decided_count() == cluster.correct_count() &&
          e.agreement_holds() && e.agreed_value().value_or(kBottom) >= 1000) {
        converged = true;
        break;
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    ++result.runs;
    if (converged) ++result.converged;
  };
  const SweepReport report = SweepRunner(spec).run();
  result.events_per_sec = report.events_per_sec;
  return result;
}

constexpr Value kQuietValue = 42;

Scenario quiet_scenario(bool enabled) {
  Scenario sc = scrambled_scenario(enabled);
  const Duration stable_at = sc.chaos_period + sc.make_params().delta_stb();
  sc.with_proposal(stable_at + milliseconds(1), 0, kQuietValue);
  sc.run_for = stable_at + milliseconds(150);
  return sc;
}

void run_quiet(bool enabled, std::uint32_t trials, std::uint64_t seed0,
               CleanupResult& result) {
  std::mutex mu;
  SweepSpec spec;
  spec.scenarios = {quiet_scenario(enabled)};
  spec.seeds_per_scenario = trials;
  spec.seed0 = seed0;
  spec.threads = 0;
  const RealTime stable_at = RealTime::zero() +
                             spec.scenarios[0].chaos_period +
                             spec.scenarios[0].make_params().delta_stb();
  spec.per_run = [&](const SweepRun&, Cluster& cluster) {
    std::vector<TimedDecision> post;
    std::uint32_t decided = 0;
    bool wrong_value = false;
    for (const auto& d : cluster.decisions()) {
      if (d.real_at < stable_at) continue;
      post.push_back(d);
      if (d.decision.general.node == 0 && d.decision.decided()) {
        ++decided;
        wrong_value |= d.decision.value != kQuietValue;
      }
    }
    const bool converged =
        !wrong_value && decided == cluster.correct_count() &&
        evaluate_run(post, {}, cluster.correct_count(), cluster.params())
                .agreement_violations == 0;
    const std::lock_guard<std::mutex> lock(mu);
    ++result.quiet_runs;
    if (converged) ++result.quiet_converged;
  };
  (void)SweepRunner(spec).run();
}

/// Determinism gate for the artifact: the A2 chaos scenario through the
/// serial engine vs the two-phase handoff engine (4-shard suffix) must
/// produce bit-identical digests.
bool chaos_handoff_parity() {
  const SweepRun serial =
      SweepRunner::run_cell(cleanup_scenario(true, 1), 77);
  const SweepRun sharded =
      SweepRunner::run_cell(cleanup_scenario(true, 4), 77);
  return serial.digest == sharded.digest && serial.events == sharded.events;
}

void print_table() {
  const Params params = Scenario{}.make_params();
  std::FILE* json = std::fopen("BENCH_ablation.json", "w");

  std::printf("\nE8/A1: Block R window — Fig. 1's 4d vs shipped 5d, actual "
              "delays uniform up to the bound δ (sweep: all cores)\n");
  Table t1({"R1 window", "trials", "unanimous%", "mixed decide/abort",
            "latency p50 (ms)", "latency max (ms)"});
  if (json) std::fprintf(json, "{\n  \"r1_window\": [\n");
  const struct {
    const char* name;
    const char* key;
    Duration window;
  } windows[] = {{"4d (paper literal)", "4d", 4 * params.d()},
                 {"5d (shipped)", "5d", 5 * params.d()}};
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < std::size(windows); ++i) {
    auto r = run_r1(windows[i].window, 40, 11000);
    if (windows[i].window == 5 * params.d() &&
        (r.unanimous != r.trials || r.mixed_outcome != 0)) {
      failures.push_back("A1 5d row: " + std::to_string(r.unanimous) + " of " +
                         std::to_string(r.trials) + " unanimous, " +
                         std::to_string(r.mixed_outcome) + " mixed");
    }
    t1.add_row({windows[i].name, std::to_string(r.trials),
                Table::fmt_ms(1e6 * 100.0 * r.unanimous / r.trials),
                Table::fmt_int(r.mixed_outcome),
                r.latency.empty() ? "-" : Table::fmt_ms(r.latency.quantile(0.5)),
                r.latency.empty() ? "-" : Table::fmt_ms(r.latency.max())});
    if (json) {
      std::fprintf(json,
                   "    {\"window\": \"%s\", \"trials\": %u, "
                   "\"unanimous_pct\": %.1f, \"mixed_outcome\": %u, "
                   "\"latency_p50_ms\": %.6f, "
                   "\"sweep_events_per_sec\": %.0f}%s\n",
                   windows[i].key, r.trials,
                   100.0 * r.unanimous / r.trials, r.mixed_outcome,
                   r.latency.empty() ? 0.0
                                     : r.latency.quantile(0.5) * 1e-6,
                   r.events_per_sec, i + 1 < std::size(windows) ? "," : "");
    }
  }
  t1.print();

  std::printf("\nE8/A2: cleanup/decay blocks (the self-stabilization "
              "machinery) on vs off, after a transient scramble "
              "(sweep: all cores)\n");
  Table t2({"cleanup", "busy runs", "converged", "converged%",
             "quiet runs", "converged", "converged%"});
  if (json) std::fprintf(json, "  ],\n  \"cleanup\": [\n");
  for (bool enabled : {true, false}) {
    auto r = run_cleanup(enabled, 12, 12000);
    run_quiet(enabled, 48, 12000, r);
    const struct {
      const char* name;
      std::uint32_t runs, converged;
    } scenarios[] = {{"busy", r.runs, r.converged},
                     {"quiet", r.quiet_runs, r.quiet_converged}};
    for (const auto& sc : scenarios) {
      const std::string prefix =
          std::string("A2 ") + sc.name + " cleanup " + (enabled ? "on" : "off");
      if (enabled && sc.converged != sc.runs) {
        failures.push_back(prefix + ": " + std::to_string(sc.converged) +
                           " of " + std::to_string(sc.runs) +
                           " runs converged");
      }
      if (!enabled && sc.converged == sc.runs) {
        failures.push_back(prefix + ": all " + std::to_string(sc.runs) +
                           " runs converged, so the ablation shows nothing");
      }
    }
    t2.add_row({enabled ? "on (paper)" : "off (ablated)",
                std::to_string(r.runs), std::to_string(r.converged),
                Table::fmt_ms(1e6 * 100.0 * r.converged / r.runs),
                std::to_string(r.quiet_runs), std::to_string(r.quiet_converged),
                Table::fmt_ms(1e6 * 100.0 * r.quiet_converged / r.quiet_runs)});
    if (json) {
      std::fprintf(json,
                   "    {\"cleanup\": %s, \"runs\": %u, \"converged\": %u, "
                   "\"quiet_runs\": %u, \"quiet_converged\": %u, "
                   "\"sweep_events_per_sec\": %.0f}%s\n",
                   enabled ? "true" : "false", r.runs, r.converged,
                   r.quiet_runs, r.quiet_converged, r.events_per_sec,
                   enabled ? "," : "");
    }
  }
  t2.print();
  std::printf("(Expected: with cleanup off, convergence from a scrambled "
              "state collapses — the decay rules are what buys "
              "self-stabilization.)\n");

  const bool parity = chaos_handoff_parity();
  std::printf("chaos handoff digest parity (serial vs two-phase 4-shard): "
              "%s\n", parity ? "yes" : "NO — BUG");
  if (json) {
    std::fprintf(json, "  ],\n  \"deterministic\": %s\n}\n",
                 parity ? "true" : "false");
    std::fclose(json);
    std::printf("(wrote BENCH_ablation.json)\n");
  }
  for (const std::string& failure : failures) {
    std::printf("E8 FAIL: %s\n", failure.c_str());
  }
  if (!parity) {
    std::fprintf(stderr, "bench_ablation: DIGEST PARITY FAILED\n");
  }
  if (!parity || !failures.empty()) std::exit(1);
}

void BM_AblationR1(benchmark::State& state) {
  const Params params = Scenario{}.make_params();
  R1Result r;
  for (auto _ : state) {
    r = run_r1(state.range(0) * params.d(), 10, 1);
  }
  state.counters["unanimous_pct"] = 100.0 * r.unanimous / r.trials;
}
BENCHMARK(BM_AblationR1)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ssbft::print_table();
  return 0;
}
