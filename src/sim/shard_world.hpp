// ShardWorld: the windowed simulation engine.
//
// An EngineCore (sim/world.hpp) — the node records, the one Network over
// them and the one TimerWheel, shared with the serial World — whose n
// nodes are partitioned across S shards: contiguous equal blocks, fixed for
// the engine's lifetime, each node with its own event queue. Shard s is
// worker s, so a shard's node block, queues and window state live in the
// worker's own context (ExecContext). All shards advance in lock-step time
// windows of width λ = the network's minimum link+processing delay
// (WorldConfig::lookahead). Within a window no node can affect another
// node — every send lands at or after the window end, only a node's own
// timers create same-window work — so dispatch is node-major: at plan time
// each shard lists its nodes with runnable window work, and S workers claim
// whole nodes (own shard first, then the busiest peer) via atomic cursors
// and run each node's window batch in key order. Inside a window the
// Network parks every copy in the executing worker's outbox (each shard
// drains its own at the window barrier) and bumps that worker's counters
// (folded in at plan time); outside a window copies land straight in their
// node queues.
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

#include "sim/world.hpp"

namespace ssbft {

class ShardWorld final : public EngineCore {
 public:
  explicit ShardWorld(WorldConfig config);
  /// Adoption form: continue a serial segment's run from its exported
  /// snapshot (see WorldMigration): the window clock and world channel
  /// continue, then EngineCore::adopt_core, then each pending world action
  /// parks in its target's queue under its original key. The segment then
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
    return std::uint32_t(exec_.size());
  }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }
  /// Scheduler observability: windows, per-window imbalance and steal
  /// counters (see WindowStats).
  [[nodiscard]] const WindowStats& sched_stats() const {
    return sched_stats_;
  }

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

  /// Hand the engine's state to a serial adopter: EngineCore::export_core
  /// plus the deliveries and world actions pending in the node queues, read
  /// out in shard, node, then heap order.
  [[nodiscard]] WorldMigration export_migration();

  [[nodiscard]] RealTime now() const override;

  void schedule(RealTime when, NodeId target,
                std::function<void()> action) override;

  [[nodiscard]] std::uint64_t dispatched() const override;
  /// Gauges summed over every node queue (also what DutyWorld reports in
  /// sharded segments).
  [[nodiscard]] QueueGauges queue_gauges() const;
  void collect_stats(StatsRegistry& reg) const override;

  [[nodiscard]] Network& network() override;   // aborts: serial-only surface
  [[nodiscard]] EventQueue& queue() override;  // aborts: serial-only surface

 private:
  /// Worker s's context, which is also shard s: the owned node block and
  /// its queues and window items (read by thieves during a window), then
  /// what only the worker writes inside a window — its private send outbox
  /// (merged at the barrier in worker order), wire counters (folded into
  /// the Network's at plan time), steal counters, and the logger every node
  /// it runs writes to (node_log). Each context is its own heap block.
  struct ExecContext {
    ExecContext(LogLevel level, std::uint32_t shard_count, NodeId first,
                NodeId end)
        : first(first), end(end), queues(end - first),
          outbox(shard_count), logger(level) {}
    NodeId first;                     // owned node block [first, end)
    NodeId end;
    std::vector<EventQueue> queues;   // one per owned node, by id − first
    std::vector<NodeId> steal_items;  // owned nodes with work this window
    std::uint64_t owner_dispatched = 0;  // at the last window's accounting
    // By destination shard; each parked copy carries its full key, so the
    // destination queue reproduces the serial order whichever barrier
    // inserts it, and its pooled body moves on into the Delivery slot.
    alignas(64) std::vector<std::vector<Network::PendingDelivery>> outbox;
    NetworkStats stats;
    std::uint64_t steals = 0;
    std::uint64_t stolen_events = 0;
    std::uint64_t window_events = 0;  // dispatches this window (imbalance)
    Logger logger;
  };

  /// A node's event queue — its deliveries, timers and actions — found
  /// through the exact node → shard table built at construction (the
  /// boundaries floor(s·n/S) have no closed-form inverse that is safe to
  /// get subtly wrong — a mismapped node would abort or corrupt).
  [[nodiscard]] EventQueue& node_queue(NodeId id) {
    ExecContext& shard = *exec_[shard_index_[id]];
    return shard.queues[id - shard.first];
  }

  [[nodiscard]] const RealTime* trace_clock() const override {
    return &global_now_;
  }
  /// Does an event at `t` belong to the current window?
  [[nodiscard]] bool within_window(RealTime t) const {
    return window_inclusive_ ? t <= window_end_ : t < window_end_;
  }

  // --- NodeHost: what the windowed engine does its own way ----------------
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
    if (tl_exec_ != nullptr && exec_.size() > 1) {
      const std::lock_guard<std::mutex> lock(timer_mutex_);
      return op(timers_);
    }
    return op(timers_);
  }

  /// Park a world action in its target's queue. Serial phases only.
  void place_action(RealTime when, EventKey key, NodeId target,
                    std::function<void()> action);
  /// Park a timer's fire event in its node's queue (the timer key's creator
  /// is the owning node): plan time and serial phases, or inside a window
  /// by the worker running that node.
  void place_timer(const TimerWheel::Due& due);
  /// Hand every wheel timer due at or before `bound` to its node's queue.
  /// Plan time (all workers parked): mid-window pumping would race the
  /// workers, and early hand-over is unobservable — each node's dispatch
  /// gate still holds the event for its window (run_steal_window).
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
  /// from the busiest shard until nothing runnable remains. Claiming a
  /// node runs its whole window batch: its queue in key order up to the
  /// window gate.
  void run_steal_window(std::uint32_t worker);
  /// Move every worker outbox addressed to `shard` into its node queues,
  /// in worker order. The window barrier guarantees the producers are
  /// parked.
  void drain_inboxes(std::uint32_t shard);

  /// The node queue whose clock is "now" for the executing thread inside
  /// a window; null otherwise (fall back to the global clock).
  static thread_local EventQueue* tl_current_queue_;
  /// The executing worker's context inside a window; null in serial phases.
  static thread_local ExecContext* tl_exec_;

  Duration lookahead_{};
  std::mutex timer_mutex_;  // wheel ops inside multi-shard windows
  std::vector<std::unique_ptr<ExecContext>> exec_;  // by worker = shard
  std::vector<std::uint32_t> shard_index_;          // node id → owning shard
  std::vector<std::atomic<std::uint32_t>> steal_cursor_;  // per shard
  std::uint64_t world_seq_ = 0;
  std::uint64_t base_dispatched_ = 0;  // the serial prefix's, after a handoff
  RealTime global_now_{};
  WindowStats sched_stats_;

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
