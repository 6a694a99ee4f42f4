// Shared timing of the engine benches (bench_shard, bench_dutycycle): one
// Cluster run's wall time, event count, digest and engine counters, and the
// median of interleaved repetitions of the same run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/runner.hpp"
#include "sim/duty_world.hpp"
#include "sim/shard_world.hpp"

namespace ssbft {

/// Timed runs per engine and row; the engines of a row are interleaved
/// rep by rep, so a burst of host load lands on every side instead of one.
constexpr std::size_t kReps = 5;

struct EngineRun {
  double events_per_sec = 0;
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::uint32_t shards = 1;
  WindowStats sched;               // windowed-engine scheduler health
  std::size_t migrations = 0;      // engine switches (alternating only)
  std::uint64_t migration_ns = 0;  // wall time inside those switches
  std::vector<WindowStabilization> windows;

  /// Wall time actually spent dispatching events, after subtracting the
  /// engine switches' export → adopt span.
  [[nodiscard]] std::uint64_t dispatch_ns() const {
    const auto wall = std::uint64_t(wall_seconds * 1e9);
    return wall > migration_ns ? wall - migration_ns : 0;
  }
};

inline EngineRun run_engine(const Scenario& sc,
                            Cluster::Engine engine = Cluster::Engine::kAuto) {
  Cluster cluster(sc, engine);
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run();
  const auto t1 = std::chrono::steady_clock::now();

  EngineRun out;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.events = cluster.world().dispatched();
  out.digest = evaluate_stack(cluster).digest;
  out.shards = cluster.shards();
  out.windows = window_stabilization(cluster.scenario(), cluster.probe());
  if (auto* sharded = dynamic_cast<ShardWorld*>(&cluster.world())) {
    out.sched = sharded->sched_stats();
  } else if (auto* duty = dynamic_cast<DutyWorld*>(&cluster.world())) {
    out.sched = duty->sched_stats();
    out.migrations = duty->migrations();
    out.migration_ns = duty->migration_ns();
  }
  if (out.wall_seconds > 0) {
    out.events_per_sec = double(out.events) / out.wall_seconds;
  }
  return out;
}

/// Same simulation: run digest and event count agree.
inline bool same_run(const EngineRun& a, const EngineRun& b) {
  return a.digest == b.digest && a.events == b.events;
}

/// One timed run standing for `runs` (repetitions of one deterministic
/// simulation): the run with the median wall time, its scheduler counters
/// included, carrying the median migration time.
inline EngineRun median_run(std::vector<EngineRun> runs) {
  const auto mid = runs.begin() + runs.size() / 2;
  std::vector<std::uint64_t> migration_ns;
  for (const EngineRun& run : runs) migration_ns.push_back(run.migration_ns);
  std::nth_element(migration_ns.begin(),
                   migration_ns.begin() + migration_ns.size() / 2,
                   migration_ns.end());
  std::nth_element(runs.begin(), mid, runs.end(),
                   [](const EngineRun& a, const EngineRun& b) {
                     return a.wall_seconds < b.wall_seconds;
                   });
  EngineRun out = *mid;
  out.migration_ns = migration_ns[migration_ns.size() / 2];
  return out;
}

}  // namespace ssbft
