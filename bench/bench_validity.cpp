// E1 — Validity & Timeliness-2 under a correct General.
//
// Paper claims (§3, Timeliness validity; Theorem 3): with a correct General
// G conforming to the Sending Validity Criteria, every correct node decides
// G's value, with  t0 − d ≤ rt(τG) ≤ rt(τq) ≤ t0 + 4d.
//
// This bench sweeps n (with f = ⌊(n−1)/3⌋ actual Byzantine nodes) and
// reports decision latency vs the 4d bound, plus agreement/validity checks.
//
// Trial loops ride the SweepRunner worker pool (one independent World per
// trial, all cores, per_run hook for the per-decision figures); results go
// to stdout and BENCH_validity.json. The exit status is 1 when any row
// breaks Validity, its anchor window or the 4d bound.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <mutex>

#include "harness/metrics.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "util/stats.hpp"

namespace ssbft {
namespace {

struct ValidityResult {
  std::uint32_t trials = 0;
  std::uint32_t validity_ok = 0;
  SampleSet latency;       // decision real − proposal real
  SampleSet anchor_error;  // rt(τG) − t0 (paper: within [−d, +4d])
};

ValidityResult run_validity(std::uint32_t n, std::uint32_t f,
                            std::uint32_t trials, std::uint64_t seed0) {
  Scenario sc;
  sc.n = n;
  sc.f = f;
  sc.with_tail_faults(f);
  sc.adversary = AdversaryKind::kSilent;
  sc.with_proposal(milliseconds(5), 0, 11);
  sc.run_for = milliseconds(150);

  ValidityResult result;
  std::mutex mu;
  SweepSpec spec;
  spec.scenarios = {sc};
  spec.seeds_per_scenario = trials;
  spec.seed0 = seed0;
  spec.threads = 0;  // all cores; each trial is an independent World
  spec.per_run = [&](const SweepRun& run, Cluster& cluster) {
    const std::lock_guard<std::mutex> lock(mu);
    ++result.trials;
    if (run.agreement.validity_violations == 0 &&
        run.agreement.agreement_violations == 0) {
      ++result.validity_ok;
    }
    if (cluster.proposals().empty()) return;
    const RealTime t0 = cluster.proposals()[0].real_at;
    for (const auto& d : cluster.decisions()) {
      if (!d.decision.decided()) continue;
      result.latency.add(d.real_at - t0);
      result.anchor_error.add(d.tau_g_real - t0);
    }
  };
  (void)SweepRunner(spec).run();
  return result;
}

void BM_Validity(benchmark::State& state) {
  const auto n = std::uint32_t(state.range(0));
  const std::uint32_t f = (n - 1) / 3;
  ValidityResult result;
  for (auto _ : state) {
    result = run_validity(n, f, 20, 1000);
  }
  state.counters["validity_ok_pct"] =
      100.0 * result.validity_ok / std::max(1u, result.trials);
  if (!result.latency.empty()) {
    state.counters["latency_p50_ms"] = result.latency.quantile(0.5) * 1e-6;
    state.counters["latency_max_ms"] = result.latency.max() * 1e-6;
  }
}
BENCHMARK(BM_Validity)->Arg(4)->Arg(7)->Arg(10)->Arg(13)->Unit(benchmark::kMillisecond);

/// Prints the table and writes the artifact; returns its verdict: every row
/// has validity_ok_pct = 100, anchor_in_bounds, and lat_max within 4d.
bool print_table() {
  std::printf("\nE1: Validity under a correct General (paper bound: decide "
              "within t0+4d; here d=%.3fms)\n",
              Scenario{}.make_params().d().millis());
  Table table({"n", "f", "trials", "validity%", "latency p50 (ms)",
               "latency max (ms)", "4d bound (ms)", "anchor err in [-d,4d]"});
  std::FILE* json = std::fopen("BENCH_validity.json", "w");
  if (json) std::fprintf(json, "{\n  \"rows\": [\n");
  const std::uint32_t sizes[] = {4u, 7u, 10u, 13u, 16u, 25u};
  bool all_ok = true;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const std::uint32_t n = sizes[i];
    const std::uint32_t f = (n - 1) / 3;
    auto r = run_validity(n, f, 30, 42);
    const Params params = [&] {
      Scenario sc;
      sc.n = n;
      sc.f = f;
      return sc.make_params();
    }();
    const double d_ns = double(params.d().ns());
    bool anchor_ok = true;
    for (double e : r.anchor_error.samples()) {
      if (e < -d_ns || e > 4 * d_ns) anchor_ok = false;
    }
    const bool row_ok = r.validity_ok == r.trials && anchor_ok &&
                        (r.latency.empty() || r.latency.max() <= 4 * d_ns);
    if (!row_ok) {
      std::fprintf(stderr, "E1 FAIL: n=%u breaks Validity or its 4d bound\n",
                   n);
      all_ok = false;
    }
    table.add_row({std::to_string(n), std::to_string(f),
                   std::to_string(r.trials),
                   Table::fmt_ms(1e6 * 100.0 * r.validity_ok / r.trials),
                   r.latency.empty() ? "-" : Table::fmt_ms(r.latency.quantile(0.5)),
                   r.latency.empty() ? "-" : Table::fmt_ms(r.latency.max()),
                   Table::fmt_ms(4 * d_ns), anchor_ok ? "yes" : "NO"});
    if (json) {
      std::fprintf(json,
                   "    {\"n\": %u, \"f\": %u, \"trials\": %u, "
                   "\"validity_ok_pct\": %.1f, \"lat_p50_ms\": %.6f, "
                   "\"lat_max_ms\": %.6f, \"bound_4d_ms\": %.6f, "
                   "\"anchor_in_bounds\": %s}%s\n",
                   n, f, r.trials, 100.0 * r.validity_ok / r.trials,
                   r.latency.empty() ? 0.0 : r.latency.quantile(0.5) * 1e-6,
                   r.latency.empty() ? 0.0 : r.latency.max() * 1e-6,
                   4 * d_ns * 1e-6, anchor_ok ? "true" : "false",
                   i + 1 < std::size(sizes) ? "," : "");
    }
  }
  table.print();
  if (json) {
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("(wrote BENCH_validity.json)\n");
  }
  return all_ok;
}

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Exit 1 when a row breaks a paper bound, so CI fails on it.
  return ssbft::print_table() ? 0 : 1;
}
