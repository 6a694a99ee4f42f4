// E11 — Clock synchronization atop ss-Byz-Agree (the paper's companion
// construction: pulses from agreement make any Byzantine algorithm — here,
// clock sync — self-stabilizing). Deployed through the unified
// Scenario → Cluster path (stack = kClockSync).
//
// Reported:
//   (a) precision: max pairwise skew between correct logical clocks, sampled
//       across the run, vs the construction's bound (≈ pulse skew + drift);
//   (b) convergence: real time from a full-cluster transient fault until all
//       correct clocks are back inside the precision envelope;
//   (c) effective rate: logical-clock advance per unit real time (digital
//       clock sync trades rate for bounded precision).
// The exit status is 1 when an E11a row has no settled sample or a settled
// skew above precision_bound(), or when an E11b row converges in fewer
// than all of its trials.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "clocksync/clock_sync.hpp"
#include "harness/metrics.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "util/stats.hpp"

namespace ssbft {
namespace {

Scenario clock_scenario(std::uint32_t n, std::uint32_t f, std::uint32_t byz,
                        std::uint64_t seed) {
  Scenario sc;
  sc.stack = StackKind::kClockSync;
  sc.n = n;
  sc.f = f;
  sc.with_tail_faults(byz);
  sc.adversary = AdversaryKind::kNoise;
  sc.adversary_period = milliseconds(2);
  sc.seed = seed;
  return sc;
}

struct PrecisionRow {
  SampleSet skew;             // settled instants only
  SampleSet transition_skew;  // snap-in-flight instants
  double rate = 0.0;
  Duration bound{};
  Duration cycle{};
};

PrecisionRow measure_precision(std::uint32_t n, std::uint32_t f,
                               std::uint32_t byz, std::uint64_t seed) {
  PrecisionRow row;
  Cluster cluster(clock_scenario(n, f, byz, seed));
  cluster.start();
  ClockSyncNode* head = cluster.node<ClockSyncNode>(0);
  const Duration cycle = head->cycle();
  row.cycle = cycle;
  row.bound = head->precision_bound();
  cluster.world().run_for(4 * cycle);  // warm-up
  const Duration c0 = head->clock();
  const RealTime t0 = cluster.world().now();
  for (int sample = 0; sample < 400; ++sample) {
    cluster.world().run_for(cycle / 40);
    if (!clocks_synchronized(cluster)) continue;
    (clocks_settled(cluster) ? row.skew : row.transition_skew)
        .add(clock_skew(cluster));
  }
  row.rate = (head->clock() - c0) / (cluster.world().now() - t0);
  return row;
}

struct ConvergenceResult {
  Duration time = Duration::max();
  Duration cycle{};
};

ConvergenceResult measure_convergence(std::uint32_t n, std::uint32_t f,
                                      std::uint64_t seed) {
  Cluster cluster(clock_scenario(n, f, 0, seed));
  cluster.start();
  ConvergenceResult result;
  result.cycle = cluster.node<ClockSyncNode>(0)->cycle();
  cluster.world().run_for(4 * result.cycle);
  for (NodeId i = 0; i < n; ++i) cluster.world().scramble_node(i);
  const RealTime fault_at = cluster.world().now();
  const Duration bound = cluster.node<ClockSyncNode>(0)->precision_bound();
  // First instant after which the cluster stays inside the envelope.
  const Duration step = result.cycle / 20;
  for (int i = 0; i < 400; ++i) {
    cluster.world().run_for(step);
    if (clocks_settled(cluster) && clock_skew(cluster) <= bound) {
      result.time = cluster.world().now() - fault_at;
      break;
    }
  }
  return result;
}

void BM_ClockPrecision(benchmark::State& state) {
  const auto n = std::uint32_t(state.range(0));
  const std::uint32_t f = (n - 1) / 3;
  PrecisionRow row;
  for (auto _ : state) {
    row = measure_precision(n, f, f, 42);
  }
  if (!row.skew.empty()) {
    state.counters["skew_max_us"] = row.skew.max() * 1e-3;
    state.counters["bound_us"] = double(row.bound.ns()) * 1e-3;
  }
}
BENCHMARK(BM_ClockPrecision)->Arg(4)->Arg(7)->Arg(13)->Unit(benchmark::kMillisecond);

bool print_tables() {
  bool ok = true;
  std::printf(
      "\nE11a: clock-sync precision (f Byzantine noise nodes in rotation; "
      "400 samples)\n");
  Table precision({"n", "f(byz)", "cycle (ms)", "settled p50 (us)",
                   "settled max (us)", "bound (us)", "within",
                   "transition max (us)", "rate"});
  for (std::uint32_t n : {4u, 7u, 10u, 13u}) {
    const std::uint32_t f = (n - 1) / 3;
    auto row = measure_precision(n, f, f, 42);
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.6f", row.rate);
    const bool settled = !row.skew.empty();
    const bool within = settled && row.skew.max() <= double(row.bound.ns());
    if (!within) {
      std::fprintf(stderr, "E11a FAIL: n=%u: %s\n", n,
                   settled ? "settled skew above precision_bound()"
                           : "no settled sample");
      ok = false;
    }
    char p50[32] = "-", mx[32] = "-", bd[32], tr[32];
    if (settled) {
      std::snprintf(p50, sizeof p50, "%.1f", row.skew.quantile(0.5) * 1e-3);
      std::snprintf(mx, sizeof mx, "%.1f", row.skew.max() * 1e-3);
    }
    std::snprintf(bd, sizeof bd, "%.1f", double(row.bound.ns()) * 1e-3);
    std::snprintf(tr, sizeof tr, "%.1f",
                  row.transition_skew.empty()
                      ? 0.0
                      : row.transition_skew.max() * 1e-3);
    precision.add_row({std::to_string(n), std::to_string(f),
                       Table::fmt_ms(double(row.cycle.ns())), p50, mx, bd,
                       within ? "yes" : "NO",
                       tr, rate});
  }
  precision.print();

  std::printf(
      "\nE11b: convergence after a full-cluster transient fault (all nodes "
      "scrambled; time until skew re-enters the envelope)\n");
  Table conv({"n", "f", "trials", "converge p50 (ms)", "converge max (ms)",
              "cycles (p50)"});
  for (std::uint32_t n : {4u, 7u, 13u}) {
    const std::uint32_t f = (n - 1) / 3;
    SampleSet times;
    Duration cycle{};
    constexpr std::uint64_t kTrials = 10;
    for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
      const auto r = measure_convergence(n, f, seed);
      cycle = r.cycle;
      if (r.time != Duration::max()) times.add(r.time);
    }
    if (times.size() < kTrials) {
      std::fprintf(stderr, "E11b FAIL: n=%u: %zu of %llu trials converged\n",
                   n, times.size(), static_cast<unsigned long long>(kTrials));
      ok = false;
    }
    char cyc[32];
    std::snprintf(cyc, sizeof cyc, "%.2f",
                  times.empty() ? 0.0
                                : times.quantile(0.5) / double(cycle.ns()));
    conv.add_row({std::to_string(n), std::to_string(f),
                  std::to_string(std::uint32_t(times.size())),
                  times.empty() ? "-" : Table::fmt_ms(times.quantile(0.5)),
                  times.empty() ? "-" : Table::fmt_ms(times.max()), cyc});
  }
  conv.print();
  return ok;
}

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Exit 1 when a row breaks its precision or convergence bound, so CI
  // fails on it.
  return ssbft::print_tables() ? 0 : 1;
}
