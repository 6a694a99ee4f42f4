// E10 — Quorum-policy ablation (paper footnote 7).
//
// The paper's thresholds are n−f / n−2f; footnote 7 says the coherence
// condition "can be replaced by (n+f)/2 correct nodes with some
// modifications". QuorumPolicy::kMajority is that variant:
// ⌊(n+f)/2⌋+1 / f+1.
//
// Two effects are measured, both functions of over-provisioning (n vs 3f+1):
//   (1) Latency: every protocol stage waits for its q_high-th message, so a
//       smaller quorum stops waiting for stragglers earlier. With link
//       delays uniform in [δ/5, δ], the q-th order statistic of each wave
//       drops as q drops.
//   (2) Crash tolerance: with c > f crashed nodes, optimal quorums need
//       n − c ≥ n − f alive (impossible), majority quorums keep deciding
//       while n − c ≥ ⌊(n+f)/2⌋+1. Safety is unaffected either way.
//
// Sweep-native: every (n, policy, crashes) case is one Scenario × seeds on
// the SweepRunner worker pool (one independent World per trial, all cores,
// per_run hook for the per-trial metrics). Results go to stdout and
// BENCH_quorum.json (registered with tools/bench_check.py: events_per_sec
// ratio-gated, deterministic flag = repeated-cell digest equality). The
// exit status is 1 when a crash-liveness row has a safety violation or the
// determinism gate fails.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <mutex>
#include <string>

#include "harness/metrics.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "util/stats.hpp"

namespace ssbft {
namespace {

struct QuorumRun {
  SampleSet latency;
  std::uint32_t trials = 0;
  std::uint32_t decided = 0;
  std::uint32_t agreement_violations = 0;
  double events_per_sec = 0;
};

Scenario quorum_scenario(std::uint32_t n, std::uint32_t f, QuorumPolicy policy,
                         std::uint32_t crashes) {
  Scenario sc;
  sc.n = n;
  sc.f = f;
  sc.quorum_policy = policy;
  sc.with_tail_faults(crashes);
  sc.with_proposal(milliseconds(5), 0, 7);
  sc.run_for = milliseconds(250);
  return sc;
}

QuorumRun run_policy(std::uint32_t n, std::uint32_t f, QuorumPolicy policy,
                     std::uint32_t crashes, std::uint32_t trials,
                     std::uint64_t seed0) {
  QuorumRun out;
  std::mutex mu;
  SweepSpec spec;
  spec.scenarios = {quorum_scenario(n, f, policy, crashes)};
  spec.seeds_per_scenario = trials;
  spec.seed0 = seed0;
  spec.threads = 0;  // all cores; each trial is an independent World
  spec.per_run = [&](const SweepRun&, Cluster& cluster) {
    const auto m = evaluate_run(cluster.decisions(), cluster.proposals(),
                                cluster.correct_count(), cluster.params());
    const std::lock_guard<std::mutex> lock(mu);
    ++out.trials;
    out.agreement_violations += m.agreement_violations;
    if (m.unanimous_decides == 1) ++out.decided;
    if (cluster.proposals().empty()) return;
    const RealTime t0 = cluster.proposals()[0].real_at;
    for (const auto& d : cluster.decisions()) {
      if (d.decision.decided()) out.latency.add(d.real_at - t0);
    }
  };
  const SweepReport report = SweepRunner(spec).run();
  out.events_per_sec = report.events_per_sec;
  return out;
}

void BM_QuorumPolicy(benchmark::State& state) {
  const auto n = std::uint32_t(state.range(0));
  const auto policy =
      state.range(1) == 0 ? QuorumPolicy::kOptimal : QuorumPolicy::kMajority;
  QuorumRun r;
  for (auto _ : state) {
    r = run_policy(n, 2, policy, 2, 10, 7000);
  }
  if (!r.latency.empty()) {
    state.counters["latency_p50_ms"] = r.latency.quantile(0.5) * 1e-6;
  }
  state.counters["decided_pct"] = 100.0 * r.decided / std::max(1u, r.trials);
}
BENCHMARK(BM_QuorumPolicy)
    ->ArgsProduct({{7, 13, 19, 25}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// Prints the tables; false when a safety violation occurred.
bool print_tables() {
  std::FILE* json = std::fopen("BENCH_quorum.json", "w");

  std::printf(
      "\nE10a: quorum-policy latency (f=2 silent faults, 30 trials, link "
      "delay ~ U[delta/5, delta]; sweep: all cores)\n");
  Table table({"n", "q_high opt", "q_high maj", "p50 opt (ms)", "p50 maj (ms)",
               "p90 opt (ms)", "p90 maj (ms)", "speedup p50"});
  if (json) std::fprintf(json, "{\n  \"latency\": [\n");
  const std::uint32_t sizes[] = {7u, 13u, 19u, 25u};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const std::uint32_t n = sizes[i];
    const std::uint32_t f = 2;
    auto opt = run_policy(n, f, QuorumPolicy::kOptimal, f, 30, 42);
    auto maj = run_policy(n, f, QuorumPolicy::kMajority, f, 30, 42);
    Params p_opt{n, f, microseconds(1050)};
    Params p_maj = Params{n, f, microseconds(1050)}.set_quorum_policy(
        QuorumPolicy::kMajority);
    const double speedup = maj.latency.quantile(0.5) > 0
                               ? opt.latency.quantile(0.5) /
                                     maj.latency.quantile(0.5)
                               : 0.0;
    table.add_row({std::to_string(n), std::to_string(p_opt.q_high()),
                   std::to_string(p_maj.q_high()),
                   Table::fmt_ms(opt.latency.quantile(0.5)),
                   Table::fmt_ms(maj.latency.quantile(0.5)),
                   Table::fmt_ms(opt.latency.quantile(0.9)),
                   Table::fmt_ms(maj.latency.quantile(0.9)),
                   Table::fmt_ratio(speedup)});
    if (json) {
      std::fprintf(json,
                   "    {\"n\": %u, \"q_high_opt\": %u, \"q_high_maj\": %u, "
                   "\"p50_opt_ms\": %.6f, \"p50_maj_ms\": %.6f, "
                   "\"speedup_p50\": %.4f, "
                   "\"sweep_events_per_sec\": %.0f}%s\n",
                   n, p_opt.q_high(), p_maj.q_high(),
                   opt.latency.quantile(0.5) * 1e-6,
                   maj.latency.quantile(0.5) * 1e-6, speedup,
                   opt.events_per_sec + maj.events_per_sec,
                   i + 1 < std::size(sizes) ? "," : "");
    }
  }
  table.print();

  std::printf(
      "\nE10b: liveness under c crashed nodes, n=13, f=2 (decided%% over 10 "
      "trials; safety violations must be 0 everywhere)\n");
  Table table2({"crashes c", "optimal decided%", "majority decided%",
                "agreement violations"});
  if (json) std::fprintf(json, "  ],\n  \"crash_liveness\": [\n");
  const std::uint32_t crash_counts[] = {0u, 2u, 3u, 4u, 5u, 6u};
  std::uint32_t total_violations = 0;
  for (std::size_t i = 0; i < std::size(crash_counts); ++i) {
    const std::uint32_t c = crash_counts[i];
    const auto opt = run_policy(13, 2, QuorumPolicy::kOptimal, c, 10, 99);
    const auto maj = run_policy(13, 2, QuorumPolicy::kMajority, c, 10, 99);
    total_violations += opt.agreement_violations + maj.agreement_violations;
    table2.add_row(
        {std::to_string(c),
         std::to_string(100 * opt.decided / std::max(1u, opt.trials)),
         std::to_string(100 * maj.decided / std::max(1u, maj.trials)),
         std::to_string(opt.agreement_violations + maj.agreement_violations)});
    if (json) {
      std::fprintf(json,
                   "    {\"crashes\": %u, \"opt_decided_pct\": %u, "
                   "\"maj_decided_pct\": %u, \"violations\": %u}%s\n",
                   c, 100 * opt.decided / std::max(1u, opt.trials),
                   100 * maj.decided / std::max(1u, maj.trials),
                   opt.agreement_violations + maj.agreement_violations,
                   i + 1 < std::size(crash_counts) ? "," : "");
    }
  }
  table2.print();

  // Determinism gate: the same cell twice must digest identically (the
  // sweep pool must not perturb seeded runs).
  const Scenario det_sc = quorum_scenario(13, 2, QuorumPolicy::kOptimal, 2);
  const bool deterministic =
      SweepRunner::run_cell(det_sc, 99).digest ==
      SweepRunner::run_cell(det_sc, 99).digest;
  if (json) {
    std::fprintf(json, "  ],\n  \"safety_violations\": %u,\n", total_violations);
    std::fprintf(json, "  \"deterministic\": %s\n}\n",
                 deterministic ? "true" : "false");
    std::fclose(json);
    std::printf("(wrote BENCH_quorum.json)\n");
  }
  if (!deterministic) {
    std::fprintf(stderr, "bench_quorum: DETERMINISM FAILED\n");
    std::exit(1);
  }
  if (total_violations != 0) {
    std::fprintf(stderr, "E10 FAIL: %u safety violations\n",
                 total_violations);
  }
  return total_violations == 0;
}

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Exit 1 on a safety violation, so CI fails on it.
  return ssbft::print_tables() ? 0 : 1;
}
