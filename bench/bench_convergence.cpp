// E5 — Self-stabilization: convergence time from an arbitrary state.
//
// Paper claims: once the system is coherent (ι0), it is *stable* after
// ∆stb = 2·∆reset (Corollary 5), after which every property holds. The
// abstract adds that agreement is then reached in O(f') rounds.
//
// Procedure: scramble every node's protocol state, re-randomize clocks,
// flood forged in-flight messages, and let the network misbehave until ι0.
// A correct General then proposes at a steady cadence; "convergence" is the
// first proposal after ι0 that yields a unanimous, correct decision.
// Measured convergence should be ≪ the ∆stb worst-case bound, and the
// fraction of runs converged by ∆stb must be 100%. The exit status is 1
// when any row has a post-∆stb violation or converges by ∆stb in fewer
// than 100% of its runs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <mutex>
#include <optional>

#include "harness/metrics.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace ssbft {
namespace {

struct ConvergenceResult {
  SampleSet convergence;  // first unanimous decision − ι0, per run
  std::uint32_t runs = 0;
  std::uint32_t converged_by_stb = 0;
  std::uint32_t pre_stb_agreement_violations = 0;   // allowed by the model
  std::uint32_t post_stb_agreement_violations = 0;  // must be zero
};

ConvergenceResult run_convergence(std::uint32_t n, std::uint32_t f,
                                  std::uint32_t spurious,
                                  std::uint32_t trials, std::uint64_t seed0) {
  Scenario sc;
  sc.n = n;
  sc.f = f;
  sc.with_tail_faults(f);
  sc.adversary = AdversaryKind::kNoise;
  sc.adversary_period = milliseconds(1);
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = spurious;
  sc.chaos_period = milliseconds(10);

  const Params params = sc.make_params();
  const Duration gap = params.delta_0() + 5 * params.d();
  const std::uint32_t rounds = 64;
  for (std::uint32_t i = 0; i < rounds; ++i) {
    sc.with_proposal(sc.chaos_period + milliseconds(1) + i * gap, 0,
                     1000 + Value(i));
  }
  sc.run_for = sc.chaos_period + rounds * gap + milliseconds(100);

  // Convergence detection needs the live cluster (executions clustered
  // against its decision stream), so it rides the per-run hook; trials
  // themselves fan out across all cores as independent Worlds.
  ConvergenceResult result;
  std::mutex mu;
  SweepSpec spec;
  spec.scenarios = {sc};
  spec.seeds_per_scenario = trials;
  spec.seed0 = seed0;
  spec.threads = 0;
  spec.per_run = [&](const SweepRun&, Cluster& cluster) {
    const RealTime iota0 = RealTime::zero() + sc.chaos_period;
    const RealTime stable = iota0 + params.delta_stb();
    std::uint32_t pre = 0, post = 0, by_stb = 0;
    std::optional<Duration> convergence;
    for (const auto& e :
         cluster_executions(cluster.decisions(), cluster.params())) {
      if (!e.agreement_holds()) {
        (e.first_return() >= stable ? post : pre)++;
      }
      if (!convergence && e.general.node == 0 &&
          e.decided_count() == cluster.correct_count() &&
          e.agreement_holds() && e.agreed_value().value_or(kBottom) >= 1000) {
        convergence = e.first_return() - iota0;
        if (e.first_return() <= stable) ++by_stb;
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    ++result.runs;
    result.pre_stb_agreement_violations += pre;
    result.post_stb_agreement_violations += post;
    result.converged_by_stb += by_stb;
    if (convergence) result.convergence.add(*convergence);
  };
  (void)SweepRunner(spec).run();
  return result;
}

/// Prints the table; false when a row breaks the ∆stb claim.
bool print_table() {
  std::printf("\nE5: convergence from arbitrary state (scrambled nodes + "
              "forged in-flight messages + faulty network until ι0)\n");
  Table table({"n", "f", "junk/node", "runs", "conv p50 (ms)", "conv max (ms)",
               "∆stb bound (ms)", "by-∆stb%", "post-∆stb violations"});
  CsvWriter csv("bench_convergence.csv",
                {"n", "f", "spurious", "conv_p50_ms", "conv_max_ms",
                 "stb_bound_ms", "converged_pct"});
  struct Case {
    std::uint32_t n, f, spurious;
  };
  bool all_ok = true;
  for (const Case& c : {Case{4, 1, 32}, Case{7, 2, 32}, Case{7, 2, 128},
                        Case{10, 3, 64}, Case{13, 4, 64}}) {
    const Params params{c.n, c.f, Scenario{}.make_params().d()};
    auto r = run_convergence(c.n, c.f, c.spurious, 20, 8000);
    if (r.post_stb_agreement_violations != 0 || r.converged_by_stb != r.runs) {
      std::fprintf(stderr,
                   "E5 FAIL: n=%u f=%u junk=%u has a post-∆stb violation or "
                   "converges by ∆stb in fewer than 100%% of runs\n",
                   c.n, c.f, c.spurious);
      all_ok = false;
    }
    table.add_row({std::to_string(c.n), std::to_string(c.f),
                   std::to_string(c.spurious), std::to_string(r.runs),
                   r.convergence.empty() ? "-"
                                         : Table::fmt_ms(r.convergence.quantile(0.5)),
                   r.convergence.empty() ? "-" : Table::fmt_ms(r.convergence.max()),
                   Table::fmt_ms(double(params.delta_stb().ns())),
                   Table::fmt_ms(1e6 * 100.0 * r.converged_by_stb / r.runs),
                   Table::fmt_int(r.post_stb_agreement_violations)});
    csv.row({double(c.n), double(c.f), double(c.spurious),
             r.convergence.empty() ? 0 : r.convergence.quantile(0.5) * 1e-6,
             r.convergence.empty() ? 0 : r.convergence.max() * 1e-6,
             params.delta_stb().millis(),
             100.0 * r.converged_by_stb / r.runs});
  }
  table.print();
  std::printf("(Paper: stability within ∆stb = 2∆reset after coherence; "
              "measured convergence is typically a small fraction of the "
              "bound, and post-∆stb violations must be 0.)\n");
  return all_ok;
}

void BM_Convergence(benchmark::State& state) {
  ConvergenceResult r;
  for (auto _ : state) r = run_convergence(7, 2, 64, 5, 1);
  if (!r.convergence.empty()) {
    state.counters["conv_p50_ms"] = r.convergence.quantile(0.5) * 1e-6;
  }
}
BENCHMARK(BM_Convergence)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Exit 1 when a row breaks the ∆stb claim, so CI fails on it.
  return ssbft::print_table() ? 0 : 1;
}
