// bench_shard — serial World vs the windowed (node-major) engine on one
// big run.
//
// SweepRunner parallelizes ACROSS runs; the windowed engine parallelizes
// WITHIN one run, which is what the "millions of users" workload needs.
// This bench deploys the agreement stack at n ∈ {32, 128, 512} with a
// 100 µs delay floor (the lookahead λ) and measures events/sec through the
// serial engine, through the windowed engine on ONE thread (node-major
// dispatch alone, no parallelism), and through S = 4 shards, verifying on
// every row that the engines produced bit-identical run digests — parity
// is the hard gate, speedup is reported per-machine. The one-thread column
// separates what node-major order buys from what the extra threads buy.
// Each sharded row also reports the scheduler's own health metrics:
// per-window imbalance (max/min worker dispatches) and steal count. A
// post-chaos stabilization row exercises the alternating engine (serial
// chaos window → windowed suffix, sim/duty_world.hpp) on the scramble +
// chaos + agreement-storm workload, splitting its wall time into migration
// (export/adopt) vs dispatch nanoseconds, with the same parity gate;
// bench_dutycycle extends it to recurring duty cycles. Every n-row and the
// post-chaos row time each engine as the median of kReps interleaved runs
// (bench/engine_run.hpp), with parity required on every run; the large-n
// row is one run per engine.
//
// Results go to stdout (table) and BENCH_shard.json (machine-readable,
// tracked in-repo so future PRs can diff the perf trajectory).
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "engine_run.hpp"
#include "harness/report.hpp"

namespace ssbft {
namespace {

constexpr std::uint32_t kShards = 4;

/// Simulated horizon per n. One agreement costs Θ(n²·f) relay messages
/// (~3M at n = 128, ~10⁸ at n = 512), so the big rows measure the engine's
/// events/sec on a bounded slice of the messaging storm rather than riding
/// a whole agreement; n = 32 runs its agreement to completion.
Duration bench_horizon(std::uint32_t n) {
  if (n <= 32) return milliseconds(60);
  if (n <= 128) return milliseconds(6);
  return microseconds(2200);
}

/// Process-wide peak resident set, in kilobytes (Linux ru_maxrss unit).
/// Sampled after the large-n runs, so it reflects the high-water mark the
/// 4096-node worlds actually reached — the memory half of the scale pin.
std::uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return std::uint64_t(usage.ru_maxrss);
}

Scenario shard_bench_scenario(std::uint32_t n, std::uint32_t shards) {
  Scenario sc;
  sc.n = n;
  sc.f = (n - 1) / 3;
  sc.with_tail_faults(sc.f);
  sc.shards = shards;
  // The delay floor that gives the engine its lookahead: exponential tail
  // as in the World default, floored at δ/10 = 100 µs.
  sc.link_delay =
      DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
  sc.with_proposal(milliseconds(1), 0, 100);
  sc.run_for = bench_horizon(n);
  sc.seed = 1;
  return sc;
}

/// The scale pin: a 4096-node agreement world on the federated overlay
/// (64 contiguous clusters of 64), where the flat-state protocol cores and
/// the topology layer have to carry their weight together. Flat fan-out at
/// this n would cost the origin 4096 unicasts per broadcast; federated
/// drops the origin's out-degree to 64 + 63 and lets cluster
/// representatives relay. The horizon is a bounded slice of the
/// first broadcast storm — enough deliveries (millions) to measure a
/// steady events/sec, short enough that the row stays runnable in CI.
constexpr std::uint32_t kLargeN = 4096;
constexpr std::uint32_t kLargeClusterSize = 64;

Scenario large_n_scenario(std::uint32_t shards) {
  Scenario sc = shard_bench_scenario(kLargeN, shards);
  sc.topology = Topology::kFederated;
  sc.cluster_size = kLargeClusterSize;
  sc.run_for = microseconds(1800);
  return sc;
}

/// The paper's stabilization-measurement shape: scrambled node state,
/// forged in-flight messages, and a chaotic network until ι0 = 2 ms — then
/// a post-chaos agreement storm. The chaos window runs serial on every
/// engine; what this row measures is the alternating engine's ability to
/// shard the (dominant) stabilization suffix, with digest parity as the
/// gate.
constexpr std::int64_t kChaosMs = 2;

Scenario chaos_bench_scenario(std::uint32_t n, std::uint32_t shards) {
  Scenario sc = shard_bench_scenario(n, shards);
  sc.chaos_period = milliseconds(kChaosMs);
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 16;
  // Flooding Byzantine nodes plus a barrage of post-chaos proposals keep
  // the suffix a proper messaging storm even while the scrambled correct
  // nodes are still decaying their garbage state — the phase whose
  // events/sec this row measures.
  sc.adversary = AdversaryKind::kNoise;
  sc.adversary_period = microseconds(500);
  sc.proposals.clear();
  for (std::uint32_t i = 0; i < 8; ++i) {
    sc.with_proposal(milliseconds(kChaosMs) + microseconds(100) +
                         i * microseconds(700),
                     NodeId(i % 4), 100 + i);
  }
  sc.run_for = milliseconds(kChaosMs) + bench_horizon(n);
  return sc;
}

double wall_ratio(const EngineRun& serial, const EngineRun& other) {
  return serial.wall_seconds > 0 && other.wall_seconds > 0
             ? serial.wall_seconds / other.wall_seconds
             : 0;
}

struct Row {
  std::uint32_t n = 0;
  EngineRun serial;
  EngineRun one_thread;  // windowed engine, one shard: node-major only
  EngineRun sharded;
  bool parity = true;  // every repetition matched its serial twin
  [[nodiscard]] double speedup() const {
    return wall_ratio(serial, sharded);
  }
  [[nodiscard]] double one_thread_speedup() const {
    return wall_ratio(serial, one_thread);
  }
};

/// Time a row's engines as the median of `reps` interleaved repetitions
/// (the one-thread engine only if `one_thread`). Parity must hold on every
/// repetition, not just on the medians.
template <typename MakeScenario>
Row timed_row(std::uint32_t n, MakeScenario make, bool one_thread,
              std::size_t reps = kReps) {
  Row row;
  row.n = n;
  std::vector<EngineRun> serial, single, sharded;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    serial.push_back(run_engine(make(0)));
    if (one_thread) {
      single.push_back(run_engine(make(1), Cluster::Engine::kWindowed));
      row.parity &= same_run(serial.back(), single.back());
    }
    sharded.push_back(run_engine(make(kShards)));
    row.parity &= same_run(serial.back(), sharded.back()) &&
                            same_run(serial.front(), serial.back());
  }
  row.serial = median_run(serial);
  if (one_thread) row.one_thread = median_run(single);
  row.sharded = median_run(sharded);
  return row;
}

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

void print_table() {
  std::printf("\nWindowed engine: one big run, serial vs node-major on 1 "
              "thread vs %u shards (lookahead 100 us, %u hardware threads, "
              "median of %zu interleaved runs)\n",
              kShards, std::thread::hardware_concurrency(), kReps);
  Table table({"n", "events", "serial Mev/s", "1-thread Mev/s", "1-thread",
               "sharded Mev/s", "speedup", "imb mean", "steals",
               "digest parity"});
  std::vector<Row> rows;
  for (const std::uint32_t n : {32u, 128u, 512u}) {
    const Row row = timed_row(
        n, [n](std::uint32_t s) { return shard_bench_scenario(n, s); },
        /*one_thread=*/true);
    table.add_row({std::to_string(n), Table::fmt_int(row.serial.events),
                   fmt2(row.serial.events_per_sec / 1e6),
                   fmt2(row.one_thread.events_per_sec / 1e6),
                   fmt2(row.one_thread_speedup()) + "x",
                   fmt2(row.sharded.events_per_sec / 1e6),
                   fmt2(row.speedup()) + "x",
                   fmt2(row.sharded.sched.imbalance_mean()),
                   std::to_string(row.sharded.sched.steals),
                   row.parity ? "yes" : "NO — BUG"});
    rows.push_back(row);
  }
  table.print();
  std::printf("(parity is the hard gate: every windowed run must be "
              "bit-identical to its serial twin; speedups are "
              "machine-dependent. imb mean = per-window max/min worker "
              "dispatches.)\n");

  // Post-chaos stabilization workload: the alternating engine
  // (serial chaos window -> windowed suffix) vs all-serial, on the
  // scramble + chaos + agreement-storm shape the paper actually measures,
  // with the engine-switch cost split out of the wall time.
  std::printf("\nPost-chaos stabilization (chaos [0, %lld ms) runs serial on "
              "both engines; the alternating engine shards the suffix; median "
              "of %zu interleaved runs)\n",
              static_cast<long long>(kChaosMs), kReps);
  Table chaos_table({"n", "events", "serial Mev/s", "two-phase Mev/s",
                     "speedup", "migration us", "imb mean",
                     "digest parity"});
  const Row chaos_row = timed_row(
      128, [](std::uint32_t s) { return chaos_bench_scenario(128, s); },
      /*one_thread=*/false);
  chaos_table.add_row({std::to_string(chaos_row.n),
                       Table::fmt_int(chaos_row.serial.events),
                       fmt2(chaos_row.serial.events_per_sec / 1e6),
                       fmt2(chaos_row.sharded.events_per_sec / 1e6),
                       fmt2(chaos_row.speedup()) + "x",
                       fmt2(double(chaos_row.sharded.migration_ns) * 1e-3),
                       fmt2(chaos_row.sharded.sched.imbalance_mean()),
                       chaos_row.parity ? "yes" : "NO — BUG"});
  chaos_table.print();

  // Scale pin: n = 4096 on the federated overlay, serial vs sharded, with
  // the process peak RSS recorded alongside throughput. bench_check.py
  // gates both against the committed baseline (throughput floor, 2x RSS
  // ceiling) and hard-fails on parity.
  std::printf("\nLarge-n scale pin (n = %u, federated overlay, cluster size "
              "%u, %u us slice of the broadcast storm)\n",
              kLargeN, kLargeClusterSize, 1800u);
  Table large_table({"n", "topology", "events", "serial Mev/s",
                     "sharded Mev/s", "speedup", "peak RSS MB",
                     "digest parity"});
  const Row large_row =
      timed_row(kLargeN, large_n_scenario, /*one_thread=*/false, /*reps=*/1);
  const std::uint64_t large_rss_kb = peak_rss_kb();
  large_table.add_row(
      {std::to_string(large_row.n), "federated/64",
       Table::fmt_int(large_row.serial.events),
       fmt2(large_row.serial.events_per_sec / 1e6),
       fmt2(large_row.sharded.events_per_sec / 1e6),
       fmt2(large_row.speedup()) + "x",
       Table::fmt_int(large_rss_kb / 1024),
       large_row.parity ? "yes" : "NO — BUG"});
  large_table.print();

  bool all_parity = true;
  for (const Row& row : rows) all_parity = all_parity && row.parity;
  all_parity = all_parity && chaos_row.parity;
  all_parity = all_parity && large_row.parity;

  if (std::FILE* out = std::fopen("BENCH_shard.json", "w")) {
    std::fprintf(out, "{\n  \"shards\": %u,\n  \"hardware_threads\": %u,\n",
                 kShards, std::thread::hardware_concurrency());
    std::fprintf(out, "  \"digest_parity\": %s,\n",
                 all_parity ? "true" : "false");
    std::fprintf(out, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(out,
                   "    {\"n\": %u, \"events\": %llu, "
                   "\"serial_events_per_sec\": %.0f, "
                   "\"one_thread_events_per_sec\": %.0f, "
                   "\"one_thread_speedup\": %.3f, "
                   "\"sharded_events_per_sec\": %.0f, "
                   "\"speedup\": %.3f, \"imbalance_mean\": %.3f, "
                   "\"imbalance_max\": %.3f, "
                   "\"steals\": %llu, \"parity\": %s}%s\n",
                   row.n, static_cast<unsigned long long>(row.serial.events),
                   row.serial.events_per_sec, row.one_thread.events_per_sec,
                   row.one_thread_speedup(), row.sharded.events_per_sec,
                   row.speedup(), row.sharded.sched.imbalance_mean(),
                   row.sharded.sched.imbalance_max,
                   static_cast<unsigned long long>(row.sharded.sched.steals),
                   row.parity ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"post_chaos_stabilization\": [\n"
                 "    {\"n\": %u, \"chaos_ms\": %lld, \"events\": %llu, "
                 "\"serial_events_per_sec\": %.0f, "
                 "\"sharded_events_per_sec\": %.0f, "
                 "\"speedup\": %.3f, \"migration_ns\": %llu, "
                 "\"dispatch_ns\": %llu, \"imbalance_mean\": %.3f, "
                 "\"parity\": %s}\n  ],\n",
                 chaos_row.n, static_cast<long long>(kChaosMs),
                 static_cast<unsigned long long>(chaos_row.serial.events),
                 chaos_row.serial.events_per_sec,
                 chaos_row.sharded.events_per_sec, chaos_row.speedup(),
                 static_cast<unsigned long long>(
                     chaos_row.sharded.migration_ns),
                 static_cast<unsigned long long>(
                     chaos_row.sharded.dispatch_ns()),
                 chaos_row.sharded.sched.imbalance_mean(),
                 chaos_row.parity ? "true" : "false");
    // The map-based protocol cores this PR's flat structures replaced,
    // measured on the n = 512 row at the commit that still carried them.
    // bench_check.py compares the fresh n = 512 serial throughput against
    // this pin (>= 1.2x) when hardware_threads match.
    std::fprintf(out,
                 "  \"flat_state_baseline\": {\"commit\": \"d9dfa12\", "
                 "\"hardware_threads\": 1, "
                 "\"n512_serial_events_per_sec\": 158726},\n");
    std::fprintf(out,
                 "  \"large_n\": {\"n\": %u, \"topology\": \"federated\", "
                 "\"cluster_size\": %u, \"events\": %llu, "
                 "\"serial_events_per_sec\": %.0f, "
                 "\"sharded_events_per_sec\": %.0f, "
                 "\"speedup\": %.3f, \"peak_rss_kb\": %llu, "
                 "\"parity\": %s}\n",
                 large_row.n, kLargeClusterSize,
                 static_cast<unsigned long long>(large_row.serial.events),
                 large_row.serial.events_per_sec,
                 large_row.sharded.events_per_sec, large_row.speedup(),
                 static_cast<unsigned long long>(large_rss_kb),
                 large_row.parity ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("(wrote BENCH_shard.json)\n");
  }

  if (!all_parity) {
    std::fprintf(stderr, "bench_shard: DIGEST PARITY FAILED\n");
    std::exit(1);
  }
}

void BM_ShardEngine(benchmark::State& state) {
  const auto n = std::uint32_t(state.range(0));
  const auto shards = std::uint32_t(state.range(1));
  EngineRun run;
  for (auto _ : state) run = run_engine(shard_bench_scenario(n, shards));
  state.counters["Mev_per_sec"] = run.events_per_sec / 1e6;
  state.counters["shards"] = run.shards;
}
BENCHMARK(BM_ShardEngine)
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
