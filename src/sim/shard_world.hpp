// ShardWorld: the windowed simulation engine.
//
// Partitions one World's n nodes across S shards (contiguous equal blocks,
// fixed for the engine's lifetime), each with one event queue PER NODE.
// The node records (NodeState: clocks, behaviors, streams) sit in one
// vector indexed by NodeId, and every timer in one engine-level TimerWheel
// that plan time pumps into the node queues. All shards advance in
// lock-step time windows of width λ = the network's minimum
// link+processing delay (WorldConfig::lookahead). Within a window no node
// can affect another node — every send lands at or after the window end,
// only a node's own timers create same-window work — so dispatch is
// node-major: at plan time each shard lists its nodes with runnable window
// work, and S workers claim whole nodes (own shard first, then the busiest
// peer) via atomic cursors and run each node's window batch in key order.
// The wire is the engine's one Network (sim/network.hpp), the same wire
// layer the serial World routes through: inside a window it parks every
// copy in the executing worker's outbox (each shard drains its own at the
// window barrier) and bumps that worker's counters (folded in at plan
// time); outside a window copies land straight in their node queues.
//
// Determinism is the headline constraint. Three shared mechanisms make a
// windowed run bit-identical to the serial World on the same Scenario+seed:
//   1. every random stream is a pure function of (seed, entity) — node
//      behavior RNGs, clock init, and per-SENDER delay sampling
//      (derive_node_rng / derive_node_clock / derive_link_rng);
//   2. events dispatch in content-based (when, creator, seq) key order
//      (EventKey), which each creator mints identically on any engine;
//   3. observation is canonicalized per node (metrics::run_digest), so the
//      wall-clock interleaving of worker threads is unobservable.
// test_shard asserts digest equality across all six StackKinds × shard
// counts {1, 2, 4}; bench_shard measures the speedup.
//
// Each window crosses a SpinBarrier (util/spin_barrier.hpp) twice:
// process → barrier → drain own inboxes → barrier, whose completion step
// plans the next window. Windows are short (tens of microseconds), so the
// barrier spins a bounded number of pauses before it parks. With S = 1 the
// caller's thread runs the same loop inline and no worker thread exists;
// node-major order alone beats the serial engine's time-major heap there
// (BENCH_shard.json's one-thread rows).
//
// Requirements: λ > 0 (the Cluster degrades shards to the serial engine
// when the delay floor is zero — λ = 0 degrades to serial execution, never
// to wrongness) and no ACTIVE network-chaos window (chaos delays undercut
// any lookahead). Engine selection is phase-aware: chaos windows run on
// the serial engine and the stretches between them on a ShardWorld, with
// a full state migration at every boundary (sim/duty_world.hpp; the
// adoption constructor and export_migration below are the two directions)
// — chaos means serial SEGMENTS, not a serial run. Wire taps and delay
// oracles are serial-engine features (neither is safe to call from the
// workers), so network()/queue() abort here by contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/shard.hpp"
#include "sim/world.hpp"

namespace ssbft {

class ShardWorld final : public WorldBase, private NodeHost {
 public:
  explicit ShardWorld(WorldConfig config);
  /// Adoption form: continue a serial segment's run from its exported
  /// snapshot (see WorldMigration). The node records (each node's one
  /// NodeContext) and the timer wheel move in whole; in-flight deliveries,
  /// pending world actions and the wire/dispatch counters carry over; each
  /// record is re-hosted here — behaviors are NOT re-started. The segment then
  /// dispatches the exact (when, creator, seq) order the serial engine
  /// would have, and can itself be exported at the next cut (reverse
  /// migration).
  ShardWorld(WorldConfig config, WorldMigration&& migration);
  ~ShardWorld() override;

  /// Shard count this config will actually run with: clamped to n, and 1
  /// when sharding cannot preserve serial semantics (no lookahead). The
  /// Cluster consults this to pick the engine.
  [[nodiscard]] static std::uint32_t effective_shards(const WorldConfig& config);

  [[nodiscard]] std::uint32_t shard_count() const {
    return std::uint32_t(shards_.size());
  }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }
  /// Scheduler observability: windows, per-window imbalance and steal
  /// counters (see WindowStats).
  [[nodiscard]] const WindowStats& sched_stats() const {
    return sched_stats_;
  }

  void set_behavior(NodeId id, std::unique_ptr<NodeBehavior> behavior) override;
  [[nodiscard]] NodeBehavior* behavior(NodeId id) override;

  void start() override;

  void run_until(RealTime t) override;
  void run_to_quiescence(RealTime hard_deadline) override;

  // --- engine-migration surface (sim/duty_world.hpp) -----------------------

  /// Dispatch every event strictly before `t` — the migration cut. The
  /// windowed loop runs exactly as in run_until except the final window is
  /// exclusive at `t` and queues are NOT advanced to `t`; every clock rests
  /// at its last dispatch, and everything still pending fires at or after
  /// `t` (within-window work < t always drains before the window closes,
  /// and cross-shard arrivals land ≥ window end).
  void run_before(RealTime t);

  /// Hand the engine's state to a serial adopter: the node records and the
  /// timer wheel move out whole, the deliveries and world actions pending
  /// in the node queues are read out (shard, node, then heap order), and
  /// the world-level counters are copied. One-shot: a second export, or any
  /// run/schedule after it, is a hard precondition failure.
  [[nodiscard]] WorldMigration export_migration();

  [[nodiscard]] RealTime now() const override;
  [[nodiscard]] LocalTime local_now(NodeId id) const override;
  [[nodiscard]] RealTime real_at(NodeId id, LocalTime tau) const override;

  [[nodiscard]] DriftingClock& clock(NodeId id) override;
  [[nodiscard]] Rng& rng() override { return rng_; }
  [[nodiscard]] Logger& log() override { return logger_; }

  void scramble_node(NodeId id) override;

  void schedule(RealTime when, NodeId target,
                std::function<void()> action) override;
  void inject_raw(NodeId dest, WireMessage msg, Duration delay) override;

  [[nodiscard]] NetworkStats net_stats() const override;
  [[nodiscard]] std::uint64_t dispatched() const override;
  [[nodiscard]] const TimerWheel& timers() const override { return timers_; }
  /// Gauges summed over every node queue (also what DutyWorld reports in
  /// sharded segments).
  [[nodiscard]] QueueGauges queue_gauges() const;
  void collect_stats(StatsRegistry& reg) const override;

  [[nodiscard]] Network& network() override;   // aborts: serial-only surface
  [[nodiscard]] EventQueue& queue() override;  // aborts: serial-only surface

 private:
  friend class Shard;

  /// Per-worker execution context for windows: the thread's private send
  /// outbox (merged at the barrier in worker order), wire counters (folded
  /// into the Network's at plan time), steal counters, and the logger every
  /// node it runs writes to (node_log).
  struct ExecContext {
    ExecContext(LogLevel level, std::uint32_t shard_count)
        : outbox(shard_count), logger(level) {}
    std::vector<Shard::Mailbox> outbox;  // by destination shard
    NetworkStats stats;
    std::uint64_t steals = 0;
    std::uint64_t stolen_events = 0;
    std::uint64_t window_events = 0;  // dispatches this window (imbalance)
    Logger logger;
  };

  /// Owning shard, from the exact node → shard table built at construction
  /// (the boundaries floor(s·n/S) have no closed-form inverse that is safe
  /// to get subtly wrong — a mismapped node would abort or corrupt).
  [[nodiscard]] Shard& shard_of(NodeId id) {
    return *shards_[shard_index_[id]];
  }

  // --- NodeHost: the engine side of every node's context -----------------
  void send(NodeId from, NodeId dest, WireMessage msg) override;
  void send_all(NodeId from, const WireMessage& msg) override;
  /// A fire inside the current window parks straight in the node's queue;
  /// any other goes to the wheel (heap path: always the node's queue).
  TimerHandle arm_timer(NodeState& node, LocalTime when,
                        std::uint64_t cookie) override;
  bool cancel_timer(TimerHandle handle) override;
  /// The executing worker's logger inside a window, the engine's outside.
  Logger& node_log() override;
  /// Inside a window: the executing worker's outbox (a same-shard
  /// destination may be running on another worker). Otherwise straight
  /// into the destination's node queue.
  void place_delivery(RealTime when, EventKey key, NodeId dest,
                      const WireMessage& msg, bool forged) override;
  NetworkStats* window_stats() override;

  /// Run `op` on the engine's one timer wheel. Inside a window with more
  /// than one shard, workers running different nodes race on it, so the op
  /// takes timer_mutex_; a lone shard's one worker, and every serial phase,
  /// runs it unlocked.
  template <typename Op>
  decltype(auto) on_wheel(Op&& op) {
    if (tl_exec_ != nullptr && shards_.size() > 1) {
      const std::lock_guard<std::mutex> lock(timer_mutex_);
      return op(timers_);
    }
    return op(timers_);
  }

  /// Hand every wheel timer due at or before `bound` to its node's queue.
  /// Plan time (all workers parked): mid-window pumping would race the
  /// workers, and early hand-over is unobservable — each node's dispatch
  /// gate still holds the event for its window (Shard::run_node_window).
  void pump_timers(RealTime bound);

  /// Advance all shards to `target` in lookahead windows. `quiescence`
  /// stops as soon as no shard holds an event at or before `target` and
  /// leaves each queue's clock at its last dispatch; otherwise every queue
  /// is advanced to `target` exactly like the serial engine. `cut_` mode
  /// (run_before) makes the final window exclusive at `target` and also
  /// leaves each clock at its last dispatch.
  void run_windows(RealTime target, bool quiescence);
  /// Barrier-completion step: account the window that just ran, then plan
  /// the next window (or stop). Runs single-threaded while every worker is
  /// held at the barrier.
  void plan_next_window();
  /// Fold the finished window's per-worker/per-shard dispatch deltas into
  /// the imbalance metrics, and merge the exec-context counters.
  void account_window();
  /// One worker's window: run its own shard's items, then claim nodes
  /// from the busiest shard until nothing runnable remains.
  void run_steal_window(std::uint32_t worker);

  /// The node queue whose clock is "now" for the executing thread inside
  /// a window; null otherwise (fall back to the global clock).
  static thread_local EventQueue* tl_current_queue_;
  /// The executing worker's context inside a window; null in serial phases.
  static thread_local ExecContext* tl_exec_;

  Rng rng_;
  Logger logger_;
  Duration lookahead_{};
  std::vector<NodeState> nodes_;  // by NodeId; shard s owns its block
  Network network_;               // the wire, over nodes_
  TimerWheel timers_;
  std::vector<TimerWheel::Due> due_batch_;  // advance() scratch, reused
  std::mutex timer_mutex_;  // wheel ops inside multi-shard windows
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::uint32_t> shard_index_;  // node id → owning shard
  std::uint64_t world_seq_ = 0;
  std::uint64_t base_dispatched_ = 0;  // the serial prefix's, after a handoff
  RealTime global_now_{};
  bool started_ = false;
  bool exported_ = false;  // export_migration happened; the engine is dead

  std::vector<std::uint64_t> last_shard_dispatched_;  // per-window deltas
  WindowStats sched_stats_;

  std::vector<std::unique_ptr<ExecContext>> exec_;        // per worker
  std::vector<std::atomic<std::uint32_t>> steal_cursor_;  // per shard

  // Window-loop shared state; written only in plan_next_window (all workers
  // held at the barrier) and read by workers after the barrier releases.
  RealTime window_start_{};
  RealTime window_end_{};
  bool window_inclusive_ = false;
  bool in_window_ = false;  // a window ran since the last accounting
  bool stop_ = false;
  RealTime target_{};
  bool quiescence_ = false;
  bool cut_ = false;  // run_before: final window exclusive at target_
};

}  // namespace ssbft
