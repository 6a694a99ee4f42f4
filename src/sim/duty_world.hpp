// DutyWorld: schedule-driven alternating engine for recurring chaos.
//
// The paper's transient-fault model is not one-shot: a self-stabilizing
// stack must re-converge after EVERY burst of network chaos, however often
// they recur. A chaos duty cycle — windows [s_k, s_k + width) repeating
// every `period` — therefore alternates two execution regimes: inside a
// window the network behaves arbitrarily (unbounded effective delays, so
// only the serial engine is sound), and between windows the bounded-delay
// model holds and the windowed ShardWorld runs node-major on the configured
// shard count — every stabilization segment, however short.
//
// DutyWorld compiles the window list into an alternation schedule and
// switches engines at every boundary with a FULL state migration in both
// directions:
//   * serial → sharded (window end): World::export_migration hands the run
//     to a ShardWorld, which parks each in-flight delivery in its
//     destination's node queue under its original content-based key;
//   * sharded → serial (window start): ShardWorld::export_migration reads
//     the node queues back into one snapshot the serial World adopts —
//     the reverse path, which is what lets the cycle repeat any number of
//     times.
// Both engines derive from one EngineCore (sim/world.hpp), which writes
// the engine-independent half of each direction once (export_core,
// adopt_core); an engine adds only its clock and world channel, its queue
// read-out and where a pending workload action re-lands.
// Both directions MOVE the engine's one TimerWheel and its NodeState
// vector (each node's one NodeContext: clock, behavior, every RNG stream
// and key channel) whole, so each timer keeps its (index, generation)
// ticket, each stream its exact position, and each node its context
// object; the adopter only re-points every record's host at itself, so no
// behavior learns that the engine changed.
// Every cut is exclusive (run_before): the pre-cut engine dispatches
// everything strictly before the boundary, so the alternating run executes
// the identical total (when, creator, seq) order an all-serial run would,
// and per-node digests are bit-identical (test_duty pins all six
// StackKinds × shards {1, 2, 4}; bench_dutycycle hard-gates it in CI).
//
// Both exports read the in-flight set straight out of the event queues:
// deliveries and workload actions are named event types (Network::Delivery
// — the one delivery type of both engines' one wire layer — and
// WorldAction) that EventQueue::for_each_pending visits, and each
// re-materializes under its ORIGINAL key. schedule() is a plain forward to
// the active engine.
//
// The serial surface (network(), queue()) forwards during serial segments
// and aborts during sharded ones, exactly like ShardWorld's. Chaos windows
// are installed only on the serial World of each chaos segment.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/shard_world.hpp"
#include "sim/world.hpp"

namespace ssbft {

class DutyWorld final : public WorldBase {
 public:
  /// `windows` is the chaos schedule: sorted, non-overlapping (contiguous
  /// windows should be pre-merged — Scenario::chaos_windows normalizes),
  /// each start < end. Must be non-empty, and `config.shards` must
  /// actually shard (the Cluster builds a plain serial World otherwise).
  DutyWorld(WorldConfig config, std::vector<ChaosWindow> windows);
  ~DutyWorld() override;

  /// The engine-switch boundaries, in order (window edges; a window
  /// starting at t=0 contributes only its end).
  [[nodiscard]] const std::vector<RealTime>& cuts() const { return cuts_; }
  /// The next boundary not yet crossed (max() when the schedule is spent).
  [[nodiscard]] RealTime next_cut() const {
    return cursor_ < cuts_.size() ? cuts_[cursor_] : RealTime::max();
  }
  /// Engine switches performed so far (diagnostics/tests).
  [[nodiscard]] std::size_t migrations() const { return migrations_; }
  /// Wall nanoseconds spent inside engine switches — export + adopt,
  /// run_before (dispatch) excluded. The benches split alternation cost
  /// into migration vs dispatch with this.
  [[nodiscard]] std::uint64_t migration_ns() const { return migration_ns_; }
  /// Sharded stabilization segments started so far, the live one
  /// included. Each runs on the configured shard count.
  [[nodiscard]] std::size_t segments() const { return segments_; }
  /// Scheduler counters summed over every sharded segment so far,
  /// including the live one (each segment is a fresh ShardWorld).
  [[nodiscard]] WindowStats sched_stats() const {
    WindowStats total = sched_total_;
    if (sharded_) total += sharded_->sched_stats();
    return total;
  }
  /// Is the windowed engine currently active? (Tests.)
  [[nodiscard]] bool sharded_active() const { return sharded_ != nullptr; }
  /// The active windowed engine, sharded segments only (tests).
  [[nodiscard]] ShardWorld* sharded_engine() { return sharded_.get(); }

  void set_behavior(NodeId id, std::unique_ptr<NodeBehavior> behavior) override;
  [[nodiscard]] NodeBehavior* behavior(NodeId id) override;
  void start() override;

  void run_until(RealTime t) override;
  void run_to_quiescence(RealTime hard_deadline) override;

  [[nodiscard]] RealTime now() const override;
  [[nodiscard]] LocalTime local_now(NodeId id) const override;
  [[nodiscard]] RealTime real_at(NodeId id, LocalTime tau) const override;

  [[nodiscard]] DriftingClock& clock(NodeId id) override;
  [[nodiscard]] Rng& rng() override;
  [[nodiscard]] Logger& log() override;

  void scramble_node(NodeId id) override;

  void schedule(RealTime when, NodeId target,
                std::function<void()> action) override;
  void inject_raw(NodeId dest, WireMessage msg, Duration delay) override;

  [[nodiscard]] NetworkStats net_stats() const override;
  [[nodiscard]] std::uint64_t dispatched() const override;
  /// The active engine's wheel — the one wheel every cut moves along.
  [[nodiscard]] const TimerWheel& timers() const override;
  /// The active engine's queue gauges, the duty.* counters, and sched.*
  /// summed over every sharded segment.
  void collect_stats(StatsRegistry& reg) const override;

  /// Serial surface: forwards during serial segments, aborts during
  /// sharded ones (no single queue exists there, and taps and delay
  /// oracles are not safe to call from the shard workers).
  [[nodiscard]] Network& network() override;
  [[nodiscard]] EventQueue& queue() override;

 private:
  [[nodiscard]] WorldBase& active();
  [[nodiscard]] const WorldBase& active() const;

  /// Cross one boundary: drain the active engine strictly before `cut`,
  /// export, and adopt on the other engine.
  void migrate_to(RealTime cut);
  /// Advance the schedule: cross every boundary at or before `t`.
  void cross_cuts_until(RealTime t);

  std::vector<ChaosWindow> windows_;  // the chaos schedule
  std::vector<RealTime> cuts_;                 // engine-switch boundaries
  std::size_t cursor_ = 0;                     // next cut to cross
  std::size_t migrations_ = 0;
  std::uint64_t migration_ns_ = 0;             // export/adopt wall time
  std::size_t segments_ = 0;                   // sharded segments started
  WindowStats sched_total_;                    // retired segments' counters

  // Exactly one engine is live at a time; which one flips at every cut.
  std::unique_ptr<World> serial_;
  std::unique_ptr<ShardWorld> sharded_;
};

}  // namespace ssbft
