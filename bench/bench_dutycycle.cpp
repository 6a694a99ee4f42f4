// bench_dutycycle — recurring chaos duty cycles: all-serial vs the
// alternating engine (sim/duty_world.hpp) on one multi-cycle run.
//
// A duty cycle [s_k, s_k + width), one window every `duty` ms, alternates
// serial chaos segments with sharded stabilization segments, migrating the
// COMPLETE in-flight state across every boundary in both directions. Two
// hard gates ride on that:
//   * digest parity — the alternating run must be bit-identical to its
//     all-serial twin (run digest, event count, AND every per-window
//     stabilization digest); any mismatch exits 1 and fails CI;
//   * stabilization observability — each row records the per-window
//     re-convergence metrics (recovery time after each burst, events in
//     each recovery span) that the paper's repeated-stabilization claims
//     are about.
// Each engine of each row is timed as the median of kReps runs, serial and
// alternating interleaved (bench/engine_run.hpp), so a burst of host load
// lands on both sides instead of on one; speedup and migration time derive
// from those medians.
// Speedup is reported per-machine, never gated: single-core containers
// show ≈ 1×, the multi-core CI runners demonstrate the scaling.
//
// Results go to stdout (table) and BENCH_dutycycle.json (machine-readable,
// tracked in-repo so future PRs can diff the perf trajectory;
// tools/bench_check.py hard-gates the parity keys).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "engine_run.hpp"
#include "harness/report.hpp"

namespace ssbft {
namespace {

constexpr std::uint32_t kShards = 4;

/// The measurement shape: scrambled node state, flooding Byzantine nodes,
/// and a chaos window that RECURS — the stack must re-converge after every
/// burst, and the engine must migrate serial↔sharded at every boundary.
/// Window geometry scales with n so the big row stays a bounded slice of
/// the messaging storm (one n=128 agreement is ~3M relays).
Scenario duty_scenario(std::uint32_t n, std::uint32_t shards) {
  Scenario sc;
  sc.n = n;
  sc.f = (n - 1) / 3;
  sc.with_tail_faults(sc.f);
  sc.shards = shards;
  // Delay floor = lookahead, as in bench_shard: exponential tail, floored
  // at δ/10 = 100 µs.
  sc.link_delay =
      DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 16;
  sc.adversary = AdversaryKind::kNoise;
  sc.adversary_period = microseconds(500);
  sc.seed = 1;
  if (n <= 32) {
    sc.chaos_period = milliseconds(2);       // window width
    sc.chaos_duty = milliseconds(15);        // start-to-start stride
    sc.chaos_count = 3;                      // bursts: 0, 15, 30 ms
    sc.run_for = milliseconds(60);
  } else {
    sc.chaos_period = microseconds(600);
    sc.chaos_duty = microseconds(2500);      // bursts: 0, 2.5 ms
    sc.chaos_count = 2;
    sc.run_for = microseconds(6000);
  }
  // Post-first-window proposal barrage: keeps every stabilization segment
  // a proper messaging storm (round-robin over early correct nodes).
  for (std::uint32_t i = 0; i < 8; ++i) {
    sc.with_proposal(sc.chaos_period + microseconds(100) +
                         i * microseconds(700),
                     NodeId(i % 4), 100 + i);
  }
  return sc;
}

struct Row {
  std::uint32_t n = 0;
  EngineRun serial;
  EngineRun alternating;
  [[nodiscard]] double speedup() const {
    return serial.wall_seconds > 0 && alternating.wall_seconds > 0
               ? serial.wall_seconds / alternating.wall_seconds
               : 0;
  }
  /// The hard gate: run digest, event count, and EVERY per-window
  /// stabilization digest must match the all-serial twin.
  [[nodiscard]] bool parity() const {
    if (serial.digest != alternating.digest) return false;
    if (serial.events != alternating.events) return false;
    if (serial.windows.size() != alternating.windows.size()) return false;
    for (std::size_t w = 0; w < serial.windows.size(); ++w) {
      if (serial.windows[w].digest != alternating.windows[w].digest ||
          serial.windows[w].events != alternating.windows[w].events) {
        return false;
      }
    }
    return true;
  }
};

void append_windows_json(std::FILE* out, const EngineRun& run) {
  for (std::size_t w = 0; w < run.windows.size(); ++w) {
    const WindowStabilization& win = run.windows[w];
    std::fprintf(out,
                 "    {\"window\": %zu, \"chaos_start_ms\": %.3f, "
                 "\"chaos_end_ms\": %.3f, \"recovered\": %s, "
                 "\"recovery_ms\": %.3f, \"events\": %u, "
                 "\"digest\": \"%016llx\"}%s\n",
                 w, double((win.chaos_start - RealTime::zero()).ns()) * 1e-6,
                 double((win.chaos_end - RealTime::zero()).ns()) * 1e-6,
                 win.recovery ? "true" : "false",
                 win.recovery ? double(win.recovery->ns()) * 1e-6 : 0.0,
                 win.events, static_cast<unsigned long long>(win.digest),
                 w + 1 < run.windows.size() ? "," : "");
  }
}

void print_table() {
  std::printf("\nDuty-cycle engine: recurring chaos, all-serial vs "
              "alternating (%u shards between windows, %u hardware "
              "threads, median of %zu interleaved runs)\n",
              kShards, std::thread::hardware_concurrency(), kReps);
  Table table({"n", "windows", "migrations", "events",
               "serial Mev/s", "alternating Mev/s", "speedup",
               "migration us", "digest parity"});
  std::vector<Row> rows;
  for (const std::uint32_t n : {32u, 128u}) {
    // Every stabilization segment runs on all kShards shards.
    Row row;
    row.n = n;
    std::vector<EngineRun> serial_runs, alternating_runs;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      serial_runs.push_back(run_engine(duty_scenario(n, 0)));
      alternating_runs.push_back(run_engine(duty_scenario(n, kShards)));
    }
    row.serial = median_run(serial_runs);
    row.alternating = median_run(alternating_runs);
    char serial_s[32], alt_s[32], speedup_s[32], mig_s[32];
    std::snprintf(serial_s, sizeof serial_s, "%.2f",
                  row.serial.events_per_sec / 1e6);
    std::snprintf(alt_s, sizeof alt_s, "%.2f",
                  row.alternating.events_per_sec / 1e6);
    std::snprintf(speedup_s, sizeof speedup_s, "%.2fx", row.speedup());
    std::snprintf(mig_s, sizeof mig_s, "%.1f",
                  double(row.alternating.migration_ns) * 1e-3);
    table.add_row({std::to_string(n),
                   std::to_string(row.alternating.windows.size()),
                   std::to_string(row.alternating.migrations),
                   Table::fmt_int(row.serial.events), serial_s, alt_s,
                   speedup_s, mig_s, row.parity() ? "yes" : "NO — BUG"});
    rows.push_back(row);
  }
  table.print();
  std::printf("(parity is the hard gate: the alternating run — %zu engine "
              "switches on the first row — must be bit-identical to "
              "all-serial, per-window digests included.)\n",
              rows.empty() ? std::size_t{0} : rows.front().alternating.migrations);

  // Per-window stabilization of the multi-cycle row: what the paper's
  // repeated-convergence claims actually measure.
  std::printf("\nStabilization per chaos window (n=%u, alternating):\n",
              rows.front().n);
  Table wt({"window", "chaos (ms)", "recovery (ms)", "events", "digest"});
  for (std::size_t w = 0; w < rows.front().alternating.windows.size(); ++w) {
    const WindowStabilization& win = rows.front().alternating.windows[w];
    char span[48], digest[32];
    std::snprintf(span, sizeof span, "[%.1f, %.1f)",
                  double((win.chaos_start - RealTime::zero()).ns()) * 1e-6,
                  double((win.chaos_end - RealTime::zero()).ns()) * 1e-6);
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(win.digest));
    wt.add_row({std::to_string(w), span,
                win.recovery ? Table::fmt_ms(double(win.recovery->ns()))
                             : "no recovery",
                std::to_string(win.events), digest});
  }
  wt.print();

  bool all_parity = true;
  for (const Row& row : rows) all_parity = all_parity && row.parity();

  if (std::FILE* out = std::fopen("BENCH_dutycycle.json", "w")) {
    std::fprintf(out, "{\n  \"shards\": %u,\n  \"hardware_threads\": %u,\n",
                 kShards, std::thread::hardware_concurrency());
    std::fprintf(out, "  \"digest_parity\": %s,\n",
                 all_parity ? "true" : "false");
    std::fprintf(out, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(out,
                   "    {\"n\": %u, \"windows\": %zu, "
                   "\"migrations\": %zu, \"events\": %llu, "
                   "\"serial_events_per_sec\": %.0f, "
                   "\"alternating_events_per_sec\": %.0f, "
                   "\"speedup\": %.3f, \"migration_ns\": %llu, "
                   "\"dispatch_ns\": %llu, \"parity\": %s}%s\n",
                   row.n, row.alternating.windows.size(),
                   row.alternating.migrations,
                   static_cast<unsigned long long>(row.serial.events),
                   row.serial.events_per_sec,
                   row.alternating.events_per_sec, row.speedup(),
                   static_cast<unsigned long long>(
                       row.alternating.migration_ns),
                   static_cast<unsigned long long>(
                       row.alternating.dispatch_ns()),
                   row.parity() ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"stabilization_windows\": [\n");
    append_windows_json(out, rows.front().alternating);
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("(wrote BENCH_dutycycle.json)\n");
  }

  if (!all_parity) {
    std::fprintf(stderr, "bench_dutycycle: DIGEST PARITY FAILED\n");
    std::exit(1);
  }
}

void BM_DutyCycle(benchmark::State& state) {
  const auto n = std::uint32_t(state.range(0));
  const auto shards = std::uint32_t(state.range(1));
  EngineRun run;
  for (auto _ : state) run = run_engine(duty_scenario(n, shards));
  state.counters["Mev_per_sec"] = run.events_per_sec / 1e6;
  state.counters["migrations"] = double(run.migrations);
}
BENCHMARK(BM_DutyCycle)
    ->Args({32, 0})
    ->Args({32, kShards})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ssbft::print_table();
  return 0;
}
