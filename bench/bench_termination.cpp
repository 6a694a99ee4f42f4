// E3 — Termination and the O(f')·d claim.
//
// Paper claims: the protocol terminates within ∆agr = (2f+1)·Φ of
// invocation (Timeliness-3), and — the abstract's headline — agreement is
// reached "within O(f') communication rounds where f' ≤ f is the actual
// number of concurrent faults", at actual message speed.
//
// Sweep: fix the design bound f, vary the number of *actual* Byzantine
// nodes f', and measure decision latency. The message-driven structure
// means latency is a few actual network hops when the General is correct —
// regardless of f' — while the worst-case *bound* grows as (2f+1)Φ; with a
// crash-faulty (silent) General, aborts land at the U1 deadline, which the
// bench also verifies.
//
// Trial loops ride the SweepRunner worker pool (one independent World per
// trial, all cores, per_run hook for the per-decision figures); results go
// to stdout, bench_termination.csv, and BENCH_termination.json. The exit
// status is 1 when any row misses ∆agr or a ⊥-flush is late.
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

struct TermResult {
  SampleSet latency;  // decision − proposal (correct General)
  std::uint32_t trials = 0;
  std::uint32_t all_decided = 0;
};

TermResult run_termination(std::uint32_t n, std::uint32_t f,
                           std::uint32_t f_actual, std::uint32_t trials,
                           std::uint64_t seed0) {
  Scenario sc;
  sc.n = n;
  sc.f = f;
  sc.with_tail_faults(f_actual);
  sc.adversary = AdversaryKind::kNoise;  // active faults, not just silent
  sc.adversary_period = milliseconds(1);
  sc.with_proposal(milliseconds(5), 0, 7);
  sc.run_for = milliseconds(400);

  TermResult result;
  std::mutex mu;
  SweepSpec spec;
  spec.scenarios = {sc};
  spec.seeds_per_scenario = trials;
  spec.seed0 = seed0;
  spec.threads = 0;  // all cores; each trial is an independent World
  spec.per_run = [&](const SweepRun&, Cluster& cluster) {
    const RealTime t0 = cluster.proposals().empty()
                            ? RealTime::zero()
                            : cluster.proposals()[0].real_at;
    std::uint32_t decided = 0;
    const std::lock_guard<std::mutex> lock(mu);
    ++result.trials;
    for (const auto& d : cluster.decisions()) {
      if (!d.decision.decided() || d.decision.general.node != 0) continue;
      result.latency.add(d.real_at - t0);
      ++decided;
    }
    if (decided == cluster.correct_count()) ++result.all_decided;
  };
  (void)SweepRunner(spec).run();
  return result;
}

/// Abort timing. In a stable system with a correct network, ⊥ returns are
/// essentially impossible to provoke (forging a partial I-accept at a
/// victim needs a correct approver, which needs an n−f support quorum) — a
/// property worth stating. Residual ⊥ returns therefore come from
/// *arbitrary initial states*: scrambled nodes that believe an agreement is
/// running must flush it via U1 within ∆agr of their (garbage) anchor,
/// i.e. within 2·∆agr of the scramble.
struct AbortResult {
  SampleSet abort_flush;  // ⊥-return time − scramble time
  std::uint32_t runs = 0;
  std::uint32_t late_flushes = 0;  // past the 2∆agr + Φ budget
};

AbortResult run_abort_flush(std::uint32_t n, std::uint32_t f,
                            std::uint32_t trials, std::uint64_t seed0) {
  Scenario sc;
  sc.n = n;
  sc.f = f;
  sc.with_tail_faults(f);
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 32;
  sc.run_for = milliseconds(600);

  AbortResult result;
  std::mutex mu;
  SweepSpec spec;
  spec.scenarios = {sc};
  spec.seeds_per_scenario = trials;
  spec.seed0 = seed0;
  spec.threads = 0;
  spec.per_run = [&](const SweepRun&, Cluster& cluster) {
    const Params& params = cluster.params();
    const Duration budget = 2 * params.delta_agr() + params.phi();
    const std::lock_guard<std::mutex> lock(mu);
    ++result.runs;
    for (const auto& d : cluster.decisions()) {
      if (d.decision.decided()) continue;
      result.abort_flush.add(d.real_at - RealTime::zero());
      if (d.real_at - RealTime::zero() > budget) ++result.late_flushes;
    }
  };
  (void)SweepRunner(spec).run();
  return result;
}

/// Prints both tables and writes the artifact; returns its verdict: every
/// E3a row has all_decided_pct = 100 and lat_max within ∆agr, and no E3b
/// flush is late.
bool print_table() {
  std::printf("\nE3a: decision latency vs actual faults f' (n=13, f=4; "
              "paper bound ∆agr=(2f+1)Φ; message-driven ⇒ latency stays at "
              "a few actual hops)\n");
  Table table({"f'", "trials", "all-decided%", "latency p50 (ms)",
               "latency p99 (ms)", "latency max (ms)", "∆agr bound (ms)"});
  CsvWriter csv("bench_termination.csv",
                {"f_actual", "lat_p50_ms", "lat_p99_ms", "lat_max_ms",
                 "bound_ms"});
  std::FILE* json = std::fopen("BENCH_termination.json", "w");
  if (json) std::fprintf(json, "{\n  \"latency_vs_actual_faults\": [\n");
  const std::uint32_t n = 13, f = 4;
  const Params params{n, f, Scenario{}.make_params().d()};
  bool all_ok = true;
  for (std::uint32_t fa = 0; fa <= f; ++fa) {
    auto r = run_termination(n, f, fa, 30, 3000);
    if (r.all_decided != r.trials ||
        r.latency.max() > double(params.delta_agr().ns())) {
      std::fprintf(stderr, "E3a FAIL: f'=%u misses the ∆agr bound\n", fa);
      all_ok = false;
    }
    table.add_row({std::to_string(fa), std::to_string(r.trials),
                   Table::fmt_ms(1e6 * 100.0 * r.all_decided / r.trials),
                   Table::fmt_ms(r.latency.quantile(0.5)),
                   Table::fmt_ms(r.latency.quantile(0.99)),
                   Table::fmt_ms(r.latency.max()),
                   Table::fmt_ms(double(params.delta_agr().ns()))});
    csv.row({double(fa), r.latency.quantile(0.5) * 1e-6,
             r.latency.quantile(0.99) * 1e-6, r.latency.max() * 1e-6,
             params.delta_agr().millis()});
    if (json) {
      std::fprintf(json,
                   "    {\"f_actual\": %u, \"trials\": %u, "
                   "\"all_decided_pct\": %.1f, \"lat_p50_ms\": %.6f, "
                   "\"lat_p99_ms\": %.6f, \"lat_max_ms\": %.6f, "
                   "\"bound_ms\": %.6f}%s\n",
                   fa, r.trials, 100.0 * r.all_decided / r.trials,
                   r.latency.quantile(0.5) * 1e-6,
                   r.latency.quantile(0.99) * 1e-6, r.latency.max() * 1e-6,
                   params.delta_agr().millis(), fa < f ? "," : "");
    }
  }
  table.print();
  if (json) std::fprintf(json, "  ],\n  \"abort_flush\": [\n");

  std::printf("\nE3b: ⊥-flush after a transient scramble (residual phantom "
              "executions must abort via U1 within 2∆agr + Φ of the fault; "
              "in stable runs ⊥ is unprovokable — see bench comments)\n");
  Table table2({"n", "f", "runs", "⊥ returns", "flush p50 (ms)",
                "flush max (ms)", "2∆agr+Φ budget (ms)", "late"});
  const std::uint32_t sizes[] = {4u, 7u, 10u, 13u};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const std::uint32_t nn = sizes[i];
    const std::uint32_t ff = (nn - 1) / 3;
    auto r = run_abort_flush(nn, ff, 20, 4000);
    const Params p{nn, ff, Scenario{}.make_params().d()};
    const Duration budget = 2 * p.delta_agr() + p.phi();
    if (r.late_flushes > 0) {
      std::fprintf(stderr, "E3b FAIL: n=%u has %u late ⊥-flushes\n", nn,
                   r.late_flushes);
      all_ok = false;
    }
    table2.add_row({std::to_string(nn), std::to_string(ff),
                    std::to_string(r.runs),
                    Table::fmt_int(r.abort_flush.size()),
                    r.abort_flush.empty() ? "-"
                                          : Table::fmt_ms(r.abort_flush.quantile(0.5)),
                    r.abort_flush.empty() ? "-" : Table::fmt_ms(r.abort_flush.max()),
                    Table::fmt_ms(double(budget.ns())),
                    Table::fmt_int(r.late_flushes)});
    if (json) {
      std::fprintf(json,
                   "    {\"n\": %u, \"f\": %u, \"runs\": %u, "
                   "\"abort_returns\": %zu, \"late_flushes\": %u, "
                   "\"budget_ms\": %.6f}%s\n",
                   nn, ff, r.runs, r.abort_flush.size(), r.late_flushes,
                   budget.millis(), i + 1 < std::size(sizes) ? "," : "");
    }
  }
  table2.print();
  if (json) {
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("(wrote BENCH_termination.json)\n");
  }
  return all_ok;
}

void BM_Termination(benchmark::State& state) {
  const auto fa = std::uint32_t(state.range(0));
  TermResult r;
  for (auto _ : state) r = run_termination(13, 4, fa, 10, 1);
  if (!r.latency.empty()) {
    state.counters["latency_p50_ms"] = r.latency.quantile(0.5) * 1e-6;
  }
}
BENCHMARK(BM_Termination)->Arg(0)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Exit 1 when a row breaks a paper bound, so CI fails on it.
  return ssbft::print_table() ? 0 : 1;
}
