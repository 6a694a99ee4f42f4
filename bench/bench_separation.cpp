// E6 — Separation / Uniqueness (Timeliness-4, IA-4).
//
// Paper claims: for any two correct decisions regarding the same General,
//   (a) different values  ⇒ |rt(τG_q) − rt(τG_p)| > 4d
//   (b) same value        ⇒ |rt(τG)| gap ≤ 6d  or  > 2∆rmv − 3d
//
// The attacker here is a spamming General violating the Sending Validity
// Criteria at will; the correct nodes' own pacing state (last(G), last(G,m))
// must enforce the separation regardless. The exit status is 1 when either
// violation column is non-zero in any row.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "util/stats.hpp"

namespace ssbft {
namespace {

struct SeparationResult {
  std::uint64_t diff_value_pairs = 0;
  std::uint64_t diff_value_violations = 0;  // gap ≤ 4d
  Duration min_diff_gap = Duration::max();
  std::uint64_t same_value_pairs = 0;
  std::uint64_t same_value_violations = 0;  // gap in (6d, 2∆rmv−3d]
  std::uint32_t decisions = 0;
};

SeparationResult run_separation(Duration spam_period, std::uint32_t trials,
                                std::uint64_t seed0) {
  SeparationResult result;
  for (std::uint32_t trial = 0; trial < trials; ++trial) {
    Scenario sc;
    sc.n = 7;
    sc.f = 2;
    sc.byz_nodes = {0, 6};
    sc.adversary = AdversaryKind::kSpamGeneral;
    sc.adversary_period = spam_period;
    sc.run_for = milliseconds(600);
    sc.seed = seed0 + trial;
    Cluster cluster(sc);
    cluster.run();
    const Params& params = cluster.params();
    const Duration d = params.d();

    // All correct decisions for General 0 (one of the spammers).
    std::vector<TimedDecision> decs;
    for (const auto& dec : cluster.decisions()) {
      if (dec.decision.general.node == 0 && dec.decision.decided()) {
        decs.push_back(dec);
      }
    }
    result.decisions += std::uint32_t(decs.size());
    for (std::size_t i = 0; i < decs.size(); ++i) {
      for (std::size_t j = i + 1; j < decs.size(); ++j) {
        const Duration gap = abs(decs[i].tau_g_real - decs[j].tau_g_real);
        if (decs[i].decision.value != decs[j].decision.value) {
          ++result.diff_value_pairs;
          result.min_diff_gap = std::min(result.min_diff_gap, gap);
          if (gap <= 4 * d) ++result.diff_value_violations;
        } else {
          ++result.same_value_pairs;
          if (gap > 6 * d && gap <= 2 * params.delta_rmv() - 3 * d) {
            ++result.same_value_violations;
          }
        }
      }
    }
  }
  return result;
}

/// Prints the table; false when a row has a separation violation.
bool print_table() {
  const Params params = Scenario{}.make_params();
  std::printf("\nE6: separation under a spamming General (bounds: distinct "
              "values > 4d = %.3fms apart; same value ≤ 6d or > 2∆rmv−3d = "
              "%.3fms)\n",
              (4 * params.d()).millis(),
              (2 * params.delta_rmv() - 3 * params.d()).millis());
  Table table({"spam period (ms)", "decisions", "≠value pairs",
               "min ≠value gap (ms)", "≠value violations",
               "=value pairs", "=value violations"});
  bool all_ok = true;
  for (auto period : {microseconds(500), milliseconds(1), milliseconds(2),
                      milliseconds(5)}) {
    auto r = run_separation(period, 15, 9000);
    if (r.diff_value_violations != 0 || r.same_value_violations != 0) {
      std::fprintf(stderr, "E6 FAIL: spam period %.3f ms breaks separation\n",
                   period.millis());
      all_ok = false;
    }
    table.add_row(
        {Table::fmt_ms(double(period.ns())), Table::fmt_int(r.decisions),
         Table::fmt_int(r.diff_value_pairs),
         r.diff_value_pairs ? Table::fmt_ms(double(r.min_diff_gap.ns())) : "-",
         Table::fmt_int(r.diff_value_violations),
         Table::fmt_int(r.same_value_pairs),
         Table::fmt_int(r.same_value_violations)});
  }
  table.print();
  std::printf("(Both violation columns must be 0.)\n");
  return all_ok;
}

void BM_Separation(benchmark::State& state) {
  SeparationResult r;
  for (auto _ : state) r = run_separation(milliseconds(1), 5, 1);
  state.counters["violations"] =
      double(r.diff_value_violations + r.same_value_violations);
}
BENCHMARK(BM_Separation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Exit 1 when a row breaks separation, so CI fails on it.
  return ssbft::print_table() ? 0 : 1;
}
