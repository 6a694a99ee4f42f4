// E2 — Timeliness-1: agreement skew bounds under Byzantine Generals.
//
// Paper claims (§3, Timeliness 1): for any two correct deciders q, q':
//   (a) |rt(τq) − rt(τq')| ≤ 3d   (2d when validity holds)
//   (b) |rt(τG_q) − rt(τG_q')| ≤ 6d
//
// This bench attacks the bounds with the adversarial Generals (equivocator,
// staggered initiator, spammer) and with a correct General for reference.
//
// Sweep-native: each case is one Scenario × 25 seeds on the SweepRunner
// worker pool (one independent World per trial, all cores, per_run hook for
// the per-execution skews). Results go to stdout, bench_skew.csv, and
// BENCH_skew.json; the exit status is 1 when any case's within_bounds is
// false.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <mutex>

#include "harness/metrics.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace ssbft {
namespace {

struct SkewResult {
  SampleSet decision_skew;  // per-execution max pairwise decision distance
  SampleSet tau_g_skew;
  std::uint32_t executions = 0;
  std::uint32_t agreement_violations = 0;
};

Scenario skew_scenario(AdversaryKind kind, bool correct_general) {
  Scenario sc;
  sc.n = 10;
  sc.f = 3;
  if (correct_general) {
    sc.with_tail_faults(3);
    sc.adversary = AdversaryKind::kSilent;
    sc.with_proposal(milliseconds(5), 0, 7);
  } else {
    sc.byz_nodes = {0, 9, 8};
    sc.adversary = kind;
    // Near-correct attacks: small stagger span and a lone equivocation
    // victim keep the wave completing, maximizing achievable skew.
    sc.stagger_span = milliseconds(2);
    sc.equivocate_split = sc.n - 1;
    sc.adversary_period = milliseconds(2);
  }
  sc.run_for = milliseconds(400);
  return sc;
}

SkewResult run_skew(AdversaryKind kind, bool correct_general,
                    std::uint32_t trials, std::uint64_t seed0) {
  const Scenario sc = skew_scenario(kind, correct_general);

  SkewResult result;
  std::mutex mu;
  SweepSpec spec;
  spec.scenarios = {sc};
  spec.seeds_per_scenario = trials;
  spec.seed0 = seed0;
  spec.threads = 0;  // all cores; each trial is an independent World
  spec.per_run = [&](const SweepRun&, Cluster& cluster) {
    const RealTime horizon =
        RealTime::zero() + sc.run_for -
        (cluster.params().delta_agr() + 7 * cluster.params().d());
    const std::lock_guard<std::mutex> lock(mu);
    for (const auto& e :
         cluster_executions(cluster.decisions(), cluster.params())) {
      if (e.first_return() > horizon) continue;
      if (!e.agreement_holds()) ++result.agreement_violations;
      if (e.decided_count() < 2) continue;
      ++result.executions;
      result.decision_skew.add(e.decision_skew());
      result.tau_g_skew.add(e.tau_g_skew());
    }
  };
  (void)SweepRunner(spec).run();
  return result;
}

/// Prints the table and writes the artifacts; returns the artifact verdict:
/// every case's `within_bounds`.
bool print_table() {
  const Params params = Scenario{}.make_params();
  const double d_ms = params.d().millis();
  std::printf("\nE2: Timeliness-1 skew bounds (d=%.3fms; bounds: decision "
              "3d=%.3fms [2d with validity], anchor 6d=%.3fms)\n",
              d_ms, 3 * d_ms, 6 * d_ms);

  CsvWriter csv("bench_skew.csv",
                {"scenario", "executions", "dec_skew_p50_ms", "dec_skew_max_ms",
                 "tau_skew_p50_ms", "tau_skew_max_ms", "violations"});
  Table table({"general", "executions", "dec skew p50 (ms)",
               "dec skew max (ms)", "bound (ms)", "anchor skew max (ms)",
               "bound (ms)", "agreement violations"});
  std::FILE* json = std::fopen("BENCH_skew.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n  \"d_ms\": %.6f,\n  \"decision_bound_3d_ms\": %.6f,\n"
                 "  \"anchor_bound_6d_ms\": %.6f,\n  \"cases\": [\n",
                 d_ms, 3 * d_ms, 6 * d_ms);
  }

  struct Case {
    const char* name;
    AdversaryKind kind;
    bool correct;
    double bound_d;  // decision-skew bound in units of d
  };
  const Case cases[] = {
      {"correct", AdversaryKind::kSilent, true, 2.0},
      {"equivocating", AdversaryKind::kEquivocatingGeneral, false, 3.0},
      {"staggered", AdversaryKind::kStaggeredGeneral, false, 3.0},
      {"spamming", AdversaryKind::kSpamGeneral, false, 3.0},
  };
  bool all_within = true;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    auto r = run_skew(c.kind, c.correct, 25, 7000);
    const bool have = !r.decision_skew.empty();
    const bool within =
        r.agreement_violations == 0 &&
        (!have || (r.decision_skew.max() * 1e-6 <= c.bound_d * d_ms &&
                   r.tau_g_skew.max() * 1e-6 <= 6 * d_ms));
    if (!within) {
      std::fprintf(stderr, "E2 FAIL: %s General outside the skew bounds\n",
                   c.name);
      all_within = false;
    }
    table.add_row(
        {c.name, Table::fmt_int(r.executions),
         have ? Table::fmt_ms(r.decision_skew.quantile(0.5)) : "-",
         have ? Table::fmt_ms(r.decision_skew.max()) : "-",
         Table::fmt_ms(c.bound_d * d_ms * 1e6),
         have ? Table::fmt_ms(r.tau_g_skew.max()) : "-",
         Table::fmt_ms(6 * d_ms * 1e6), Table::fmt_int(r.agreement_violations)});
    if (have) {
      csv.row({std::string(c.name), std::to_string(r.executions),
               Table::fmt_ms(r.decision_skew.quantile(0.5)),
               Table::fmt_ms(r.decision_skew.max()),
               Table::fmt_ms(r.tau_g_skew.quantile(0.5)),
               Table::fmt_ms(r.tau_g_skew.max()),
               std::to_string(r.agreement_violations)});
    }
    if (json) {
      std::fprintf(
          json,
          "    {\"general\": \"%s\", \"executions\": %u, "
          "\"dec_skew_p50_ms\": %.6f, \"dec_skew_max_ms\": %.6f, "
          "\"dec_bound_ms\": %.6f, \"tau_skew_max_ms\": %.6f, "
          "\"agreement_violations\": %u, \"within_bounds\": %s}%s\n",
          c.name, r.executions,
          have ? r.decision_skew.quantile(0.5) * 1e-6 : 0.0,
          have ? r.decision_skew.max() * 1e-6 : 0.0, c.bound_d * d_ms,
          have ? r.tau_g_skew.max() * 1e-6 : 0.0, r.agreement_violations,
          within ? "true" : "false", i + 1 < std::size(cases) ? "," : "");
    }
  }
  table.print();
  if (json) {
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("(wrote BENCH_skew.json)\n");
  }
  return all_within;
}

void BM_Skew(benchmark::State& state) {
  SkewResult r;
  for (auto _ : state) {
    r = run_skew(AdversaryKind::kEquivocatingGeneral, false, 5, 1);
  }
  if (!r.decision_skew.empty()) {
    state.counters["dec_skew_max_ms"] = r.decision_skew.max() * 1e-6;
    state.counters["tau_skew_max_ms"] = r.tau_g_skew.max() * 1e-6;
  }
}
BENCHMARK(BM_Skew)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Exit 1 when a case breaks a paper bound, so CI fails on it.
  return ssbft::print_table() ? 0 : 1;
}
