// StatsRegistry: one self-describing export surface for run statistics.
//
// Every counter a run produces — wire totals, dispatch counts, shard
// scheduler behavior, duty-cycle migration costs, queue/wheel occupancy,
// trace-buffer health — registers here as (path, value, unit, help), so
// consumers (ssbft_cli --stats-json, tests, notebooks) read one uniform
// document instead of chasing per-engine struct fields. Gauges are sampled
// at collection time; counters are totals since the run started.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace ssbft {

class Cluster;
class EventQueue;
struct WindowStats;

struct StatsEntry {
  std::string path;   // dotted, e.g. "sched.steals"
  double value = 0;
  const char* unit = "";  // "count", "ns", "ratio", "events", ...
  const char* help = "";
};

class StatsRegistry {
 public:
  void add(std::string path, double value, const char* unit,
           const char* help) {
    entries_.push_back(StatsEntry{std::move(path), value, unit, help});
  }

  [[nodiscard]] const std::vector<StatsEntry>& entries() const {
    return entries_;
  }

  /// The entry at `path`, or nullptr.
  [[nodiscard]] const StatsEntry* find(const std::string& path) const;

  /// {"stats": [{"path": ..., "value": ..., "unit": ..., "help": ...}, ...]}
  [[nodiscard]] std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  std::vector<StatsEntry> entries_;
};

/// The queue.* gauges of one engine, summed over every event queue it runs
/// (one on the serial engine, one per node on the windowed engine).
struct QueueGauges {
  double depth = 0;
  double slab_capacity = 0;
  double peak_bytes = 0;

  void add(const EventQueue& queue);
  void report(StatsRegistry& reg) const;
};

/// The sched.* leaves of a windowed run's scheduler counters.
void add_sched_stats(StatsRegistry& reg, const WindowStats& st);

/// Snapshot every statistic the deployed engine exposes: run totals, wire
/// counters, shard-scheduler stats (executor- and owner-attributed
/// imbalance), duty-cycle migration counts/costs, event-queue and
/// timer-wheel occupancy, and tracer health when tracing is on. The
/// engine-specific part comes from WorldBase::collect_stats, so every
/// engine emits the same queue.*, wheel.* and net.* leaves.
[[nodiscard]] StatsRegistry collect_run_stats(Cluster& cluster);

}  // namespace ssbft
