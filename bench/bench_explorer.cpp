// E13 — Adversarial-schedule coverage.
//
// The paper's proofs quantify over every message schedule the bounded-delay
// model admits; seeded random runs sample only a benign corner of that
// space. This bench drives the schedule explorer (src/check) over
// systematically enumerated extreme-delay prefixes plus randomized tails,
// under four adversary/initial-state regimes, and reports trials, explored
// prefix trees, executions checked, and safety violations (expected: 0).
// The exit status is 1 when any regime reports a violation.
//
// Provenance note: this harness is not decorative — an earlier revision of
// the codebase failed the transient-start regime here (dormant scrambled
// broadcast state replayed at anchor time and broke Agreement past ∆stb;
// fixed by decaying state before the anchor replay in msgd_broadcast.cpp).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "check/explorer.hpp"
#include "harness/report.hpp"

namespace ssbft {
namespace {

Scenario base_cluster() {
  Scenario sc;
  sc.n = 4;
  sc.f = 1;
  sc.with_tail_faults(1);
  sc.with_proposal(milliseconds(5), 0, 42);
  sc.run_for = milliseconds(150);
  return sc;
}

struct Regime {
  const char* name;
  ExplorerConfig config;
};

std::vector<Regime> regimes() {
  std::vector<Regime> out;
  {
    Regime r{"correct-general", {}};
    r.config.base = base_cluster();
    r.config.trials = 243;
    r.config.systematic_depth = 5;
    out.push_back(std::move(r));
  }
  {
    Regime r{"equivocating-general", {}};
    r.config.base = base_cluster();
    r.config.base.proposals.clear();
    r.config.base.adversary = AdversaryKind::kEquivocatingGeneral;
    r.config.base.equivocate_split = 3;
    r.config.expect_validity = false;
    r.config.trials = 243;
    r.config.systematic_depth = 5;
    out.push_back(std::move(r));
  }
  {
    Regime r{"quorum-faker", {}};
    r.config.base = base_cluster();
    r.config.base.adversary = AdversaryKind::kQuorumFaker;
    r.config.expect_validity = false;
    r.config.trials = 128;
    r.config.systematic_depth = 4;
    out.push_back(std::move(r));
  }
  {
    Regime r{"transient-start", {}};
    r.config.base = base_cluster();
    r.config.base.transient_scramble = true;
    const Duration stb = r.config.base.make_params().delta_stb();
    r.config.base.proposals.clear();
    r.config.base.with_proposal(stb + milliseconds(5), 0, 42);
    r.config.base.run_for = stb + milliseconds(150);
    r.config.check_after = RealTime::zero() + stb;
    r.config.trials = 128;
    r.config.systematic_depth = 4;
    out.push_back(std::move(r));
  }
  return out;
}

void BM_Explore(benchmark::State& state) {
  auto all = regimes();
  const auto& regime = all[std::size_t(state.range(0))];
  ExplorerReport report;
  for (auto _ : state) {
    report = explore(regime.config);
  }
  state.counters["violations"] = double(report.violations.size());
  state.counters["executions"] = double(report.executions_checked);
  state.SetLabel(regime.name);
}
BENCHMARK(BM_Explore)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

/// Prints the table; false when any regime found a violation.
bool print_table() {
  std::printf(
      "\nE13: adversarial-schedule exploration (palette: ~0 / d/2 / delta+pi; "
      "exhaustive prefix tree + random tails)\n");
  Table t({"regime", "trials", "prefix tree", "executions", "decisions",
           "violations"});
  bool all_ok = true;
  for (const auto& regime : regimes()) {
    const auto report = explore(regime.config);
    if (!report.violations.empty()) {
      std::fprintf(stderr, "E13 FAIL: regime %s has %zu violations\n",
                   regime.name, report.violations.size());
      all_ok = false;
    }
    t.add_row({regime.name, std::to_string(report.trials),
               std::to_string(report.prefix_combinations),
               std::to_string(report.executions_checked),
               std::to_string(report.decisions_seen),
               std::to_string(report.violations.size())});
  }
  t.print();
  return all_ok;
}

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Exit 1 when any regime found a violation, so CI fails on it.
  return ssbft::print_table() ? 0 : 1;
}
