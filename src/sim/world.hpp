// The World: n nodes, their clocks, the network, and the event loop.
//
// The World is the only component that sees both real time and every node's
// local time; protocol behaviors run entirely behind the NodeContext
// interface. Tests and the harness use the World's omniscient accessors to
// check the paper's real-time bounds (skews, convergence times).
//
// Two engines implement the deployment surface (WorldBase), both over one
// engine core (EngineCore): the node records, the one Network
// (sim/network.hpp) over them, the one TimerWheel, and everything the
// engines do alike, written once — migration halves included:
//   World       — the serial engine: one event queue.
//   ShardWorld  — windowed (sim/shard_world.hpp): nodes are partitioned
//                 across shards that advance in lock-step lookahead
//                 windows, each node's window work dispatched as a batch.
// DutyWorld (sim/duty_world.hpp) alternates the two across chaos windows.
// Both derive every random stream from (seed, entity) and dispatch in
// (when, creator, seq) key order, so for any Scenario with a positive
// minimum network delay their observable histories are bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/timer_wheel.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace ssbft {

class Tracer;  // harness/trace.hpp; engines only carry the pointer
class StatsRegistry;  // harness/stats_registry.hpp
struct QueueGauges;   // harness/stats_registry.hpp

/// Scheduler-level counters for the windowed engine: how many λ-windows
/// ran, how (im)balanced their per-worker dispatch counts were, and how
/// often work stealing kicked in. Purely observational — none of it feeds
/// back into the simulation, so the counters may differ across shard
/// counts and hosts while digests stay identical. DutyWorld sums one of
/// these per sharded segment.
struct WindowStats {
  std::uint64_t windows = 0;           // lookahead windows run
  std::uint64_t measured_windows = 0;  // windows with at least one dispatch
  std::uint64_t steals = 0;            // foreign-shard node claims
  std::uint64_t stolen_events = 0;     // events executed on a thief worker
  std::uint64_t window_events = 0;     // dispatches over measured windows
  /// Per-window imbalance = max/min per-worker dispatch count (min clamped
  /// to 1), sampled over measured windows only. This is the EXECUTOR view —
  /// what the workers actually ran, post-stealing.
  double imbalance_max = 0.0;
  double imbalance_sum = 0.0;
  /// Per-window imbalance attributed to the OWNING shard, counting a
  /// stolen node's events against its owner: how skewed the node blocks
  /// are, which the executor view hides by design.
  double owner_imbalance_max = 0.0;
  double owner_imbalance_sum = 0.0;

  [[nodiscard]] double imbalance_mean() const {
    return measured_windows == 0 ? 0.0
                                 : imbalance_sum / double(measured_windows);
  }

  [[nodiscard]] double owner_imbalance_mean() const {
    return measured_windows == 0
               ? 0.0
               : owner_imbalance_sum / double(measured_windows);
  }

  WindowStats& operator+=(const WindowStats& o) {
    windows += o.windows;
    measured_windows += o.measured_windows;
    steals += o.steals;
    stolen_events += o.stolen_events;
    window_events += o.window_events;
    if (o.imbalance_max > imbalance_max) imbalance_max = o.imbalance_max;
    imbalance_sum += o.imbalance_sum;
    if (o.owner_imbalance_max > owner_imbalance_max) {
      owner_imbalance_max = o.owner_imbalance_max;
    }
    owner_imbalance_sum += o.owner_imbalance_sum;
    return *this;
  }
};

struct WorldConfig {
  std::uint32_t n = 4;

  /// Network bound δ and processing bound π (real time). The model constant
  /// d = (δ+π)(1+ρ) is derived; see d_bound().
  Duration delta = milliseconds(1);
  Duration pi = microseconds(50);
  /// Clock drift bound ρ for non-faulty nodes.
  double rho = 1e-4;

  /// Actual delay distributions; defaults (set at construction if kind-less)
  /// are uniform over [δ/5, δ] and [0, π].
  DelayModel link_delay{};
  DelayModel proc_delay{};
  bool has_delay_models = false;

  /// Spread of initial clock offsets (arbitrary after a transient fault).
  Duration max_clock_offset = seconds(1);

  ChaosConfig chaos{};
  std::uint64_t seed = 1;
  LogLevel log_level = LogLevel::kWarn;

  /// Message-authentication scheme (sim/auth.hpp). Both engines derive the
  /// signing key from `seed`, so a migrated run keeps verifying its own
  /// traffic. kNull ⇒ the legacy untagged model.
  AuthKind auth = AuthKind::kNull;

  /// Route node timers (NodeContext::set_timer) through the hierarchical timer
  /// wheel: O(1) arm/cancel, batched hand-over to the event heap (see
  /// sim/timer_wheel.hpp). false ⇒ the legacy path that parks every timer
  /// in the event heap at arm time. Observable histories are identical
  /// either way (test_timer_wheel pins it); only dispatched() may differ —
  /// a timer cancelled while still in the wheel never becomes an event,
  /// while the heap path dispatches a suppressed no-op.
  bool timer_wheel = true;

  /// Shard count for the parallel engine. 0 (or 1) ⇒ the serial engine,
  /// unchanged default. Values above n are clamped to n. The Cluster falls
  /// back to the serial engine when the scenario offers no lookahead
  /// (min link+proc delay of zero) — λ = 0 degrades to serial execution,
  /// never to wrongness. Network chaos runs alternating instead: each
  /// chaos window is a serial segment, each gap between windows a sharded
  /// one, with full state migrations at every boundary
  /// (sim/duty_world.hpp).
  std::uint32_t shards = 0;

  /// Dissemination overlay for broadcast fan-out (sim/topology.hpp):
  /// all-to-all (flat, the default — byte-identical to the pre-topology
  /// engine), two-level federated clusters, or a gossip relay tree. Both
  /// engines resolve it against n at construction; malformed knobs refuse
  /// to build, degenerate ones degrade to flat.
  TopologyConfig topology{};

  /// Structured tracer (harness/trace.hpp), or nullptr for untraced runs.
  /// Engines arm a trace::Scope around their dispatch loops and emit their
  /// own engine-layer records. Observation only: digests are bit-identical
  /// with or without it (test_trace pins the matrix).
  Tracer* tracer = nullptr;

  /// d = (δ+π)(1+ρ), the paper's bound on send+process as measured on any
  /// non-faulty local timer.
  [[nodiscard]] Duration d_bound() const {
    const double ns = double((delta + pi).ns()) * (1.0 + rho);
    return Duration{static_cast<std::int64_t>(ns) + 1};
  }

  /// Fill in the default delay distributions (idempotent). Both engines —
  /// and the Cluster's engine selection — resolve through this one helper
  /// so they agree on the actual distributions.
  void resolve_delay_models();

  /// Conservative lookahead λ: no node can affect another sooner than this.
  /// Call after resolve_delay_models().
  [[nodiscard]] Duration lookahead() const {
    return link_delay.min + proc_delay.min;
  }
};

// --- shared per-entity stream derivations ----------------------------------
// derive_node_rng / derive_link_rng live beside rng_stream (util/rng.hpp) so
// the Network can share them without a layering inversion; the clock draw
// needs WorldConfig and lives here. Both engines call exactly these, and
// test_shard pins their first draws so a refactor cannot silently re-seed
// every experiment in the repository.

/// Drift rate then initial offset, drawn from the node's clock stream.
[[nodiscard]] DriftingClock derive_node_clock(const WorldConfig& config,
                                              NodeId id);

/// Every node's fresh record: clock, behavior and link streams at their
/// (seed, node) origins, counters at zero, no behavior, hosted by `host`.
[[nodiscard]] std::vector<NodeState> derive_node_states(
    const WorldConfig& config, NodeHost& host);

/// A world-level action (workload injection) as it sits in an event queue:
/// the node it touches and the closure. A named event type, so a migration
/// can read pending actions back out of the queues.
struct WorldAction {
  NodeId target;
  std::function<void()> action;
  void operator()() const { action(); }
};

static_assert(EventQueue::stores_inline<WorldAction>);

/// Complete state of one engine at a migration cut — the currency both
/// directions of an engine switch trade in.
///
/// A chaos window is a serial-engine phase (drop/corrupt/duplicate and the
/// unbounded chaos delays live in the Network); the stretches between
/// windows are where the windowed ShardWorld shines. DutyWorld
/// (sim/duty_world.hpp) alternates: at each boundary the active engine
/// exports this snapshot and the other adopts it. Two parts are MOVED
/// whole, not translated: the node records (each node's one NodeContext:
/// clock, behavior, every stream and key-channel position — the adopter
/// only re-points each record's host, so behaviors never learn the engine
/// changed) and the timer wheel (records, tickets and slab, with handed-over records
/// recalled into it). The in-flight deliveries and world actions are read
/// out of the event queues; the world-level counters are copied. An N-cycle alternating run is therefore
/// bit-identical to an all-serial one (test_duty pins the matrix). The cut
/// is exclusive: every event strictly before the migration instant has
/// dispatched, so everything here fires at or after it.
struct WorldMigration {
  /// A pending WorldAction with the key-less world-channel key it was
  /// minted under, read out of the exporting engine's queues.
  struct PendingAction {
    RealTime when;
    EventKey key;
    NodeId target = 0;
    std::function<void()> action;
  };

  std::vector<NodeState> nodes;                      // indexed by NodeId
  TimerWheel timers;                                 // every live timer
  std::vector<Network::PendingDelivery> deliveries;  // in-flight messages
  std::vector<PendingAction> actions;
  Rng world_rng{0};                 // WorldBase::rng() stream position
  NetworkStats stats;               // wire counters so far
  std::uint64_t dispatched = 0;     // events so far (net of suppressed)
  std::uint64_t world_seq = 0;      // key-less world-channel position
  std::uint64_t forged_seq = 0;     // forged-channel position
  RealTime now{};                   // last prefix dispatch (< the cut)

  /// Append the Delivery events and WorldActions pending in `queue` —
  /// the in-flight set both engines export.
  void read_pending(const EventQueue& queue) {
    queue.for_each_pending<Network::Delivery>(
        [&](RealTime when, EventKey key, const Network::Delivery& d) {
          deliveries.push_back({when, key, d.dest, d.forged, d.msg});
        });
    queue.for_each_pending<WorldAction>(
        [&](RealTime when, EventKey key, const WorldAction& a) {
          actions.push_back({when, key, a.target, a.action});
        });
  }
};

/// Abstract deployment surface: everything the Cluster, the harness, and
/// the protocol-facing observation paths need, implemented by both engines.
/// `network()` and `queue()` expose the serial engine's internals for tests
/// and tools that drive them directly (taps, delay oracles, hand-scheduled
/// events); the sharded engine aborts — it has no single queue, and taps
/// and oracles are not safe to call from its workers — so callers using
/// them are serial-only by construction.
class WorldBase {
 public:
  explicit WorldBase(const WorldConfig& config);
  virtual ~WorldBase();

  WorldBase(const WorldBase&) = delete;
  WorldBase& operator=(const WorldBase&) = delete;

  [[nodiscard]] std::uint32_t n() const { return config_.n; }
  [[nodiscard]] const WorldConfig& config() const { return config_; }

  /// Install the protocol/adversary running on `id`. May be called again
  /// later (Byzantine turnover, node recovery); the new behavior's on_start
  /// runs at the current instant if the world has started.
  virtual void set_behavior(NodeId id, std::unique_ptr<NodeBehavior> behavior) = 0;
  [[nodiscard]] virtual NodeBehavior* behavior(NodeId id) = 0;

  /// Calls on_start on every installed behavior. Idempotent per behavior.
  virtual void start() = 0;

  virtual void run_until(RealTime t) = 0;
  void run_for(Duration d) { run_until(now() + d); }
  /// Drain every pending event (useful for quiescence tests).
  virtual void run_to_quiescence(RealTime hard_deadline) = 0;

  [[nodiscard]] virtual RealTime now() const = 0;
  [[nodiscard]] virtual LocalTime local_now(NodeId id) const = 0;
  [[nodiscard]] virtual RealTime real_at(NodeId id, LocalTime tau) const = 0;

  [[nodiscard]] virtual DriftingClock& clock(NodeId id) = 0;
  [[nodiscard]] virtual Rng& rng() = 0;
  [[nodiscard]] virtual Logger& log() = 0;

  /// Invoke NodeBehavior::scramble on `id` (transient fault on that node).
  virtual void scramble_node(NodeId id) = 0;

  /// Schedule a world-level action (workload injection) at `when`. `target`
  /// is the node the action touches — the sharded engine runs it on that
  /// node's shard; the serial engine ignores it.
  virtual void schedule(RealTime when, NodeId target,
                        std::function<void()> action) = 0;

  /// Fault-injector backdoor: plant `msg` (possibly sender-forged) for
  /// `dest`, delivered after `delay`.
  virtual void inject_raw(NodeId dest, WireMessage msg, Duration delay) = 0;

  /// Aggregate wire counters (summed across shards on the parallel engine).
  [[nodiscard]] virtual NetworkStats net_stats() const = 0;
  /// Events dispatched so far (summed across shards).
  [[nodiscard]] virtual std::uint64_t dispatched() const = 0;
  /// The engine's one timer wheel (occupancy gauges for StatsRegistry).
  [[nodiscard]] virtual const TimerWheel& timers() const = 0;
  /// Register the engine's own gauges (harness/stats_registry.hpp): the
  /// queue.* leaves, summed over every event queue the engine runs, plus
  /// its scheduler's sched.* and duty.* counters. Wire, wheel and run
  /// totals are engine-independent; collect_run_stats adds those.
  virtual void collect_stats(StatsRegistry& reg) const = 0;

  /// Serial-engine internals; the sharded engine aborts (see class comment).
  [[nodiscard]] virtual Network& network() = 0;
  [[nodiscard]] virtual EventQueue& queue() = 0;

 protected:
  WorldConfig config_;  // delay models resolved at construction
};

/// The engine core both engines derive from: everything the serial World
/// and the windowed ShardWorld own and do identically. One NodeState vector
/// (each node's one NodeContext), one Network over it with the topology
/// set, one TimerWheel, the world RNG and logger; the surface over those
/// members; the node-facing send path; the timer fire; and the
/// engine-independent halves of both migration directions. An engine adds
/// only its queue(s) and clock, where a keyed copy or a workload action
/// lands, how a timer is armed, and its run loops.
class EngineCore : public WorldBase, private NodeHost {
 public:
  explicit EngineCore(const WorldConfig& config);
  ~EngineCore() override;

  using WorldBase::now;  // the engine's override serves NodeHost too

  void set_behavior(NodeId id, std::unique_ptr<NodeBehavior> behavior) override;
  [[nodiscard]] NodeBehavior* behavior(NodeId id) override;

  /// Same node order on every engine: on_start handlers may send at once,
  /// and those sends must mint the same keys and stream draws.
  void start() override;

  [[nodiscard]] LocalTime local_now(NodeId id) const override;
  [[nodiscard]] RealTime real_at(NodeId id, LocalTime tau) const override;
  [[nodiscard]] DriftingClock& clock(NodeId id) override;
  [[nodiscard]] Rng& rng() override { return rng_; }
  [[nodiscard]] Logger& log() override { return logger_; }

  void scramble_node(NodeId id) override;
  /// Serial phases only (never from inside a windowed-engine window).
  void inject_raw(NodeId dest, WireMessage msg, Duration delay) override;

  [[nodiscard]] NetworkStats net_stats() const override {
    return network_.stats();
  }
  [[nodiscard]] const TimerWheel& timers() const override { return timers_; }

 protected:
  /// The trace clock start() arms its scope with: the engine's "now" cell.
  [[nodiscard]] virtual const RealTime* trace_clock() const = 0;

  /// The engine-independent half of export_migration: mark the engine dead
  /// (a second export, or any run/schedule/traffic after it, is a hard
  /// precondition failure — it could only hand over a stale snapshot),
  /// copy now, dispatched and the world-level counters, and move the node
  /// records and the wheel out, with every handed-over record recalled
  /// (their fire events die with the engine's queues). The engine adds the
  /// pending deliveries and actions read out of its queues.
  [[nodiscard]] WorldMigration export_core(std::uint64_t world_seq);
  /// The engine-independent half of the adoption constructor: continue the
  /// world-level counters and the world RNG, move the node records and the
  /// wheel in whole (each context keeps its address — behaviors may have
  /// cached it — and is re-hosted here; behaviors are NOT re-started), and
  /// re-materialize every in-flight delivery under its original key. Call
  /// once the engine's clock and world-channel positions are adopted; the
  /// engine re-lands the pending actions after.
  void adopt_core(WorldMigration& migration);

  /// A timer's fire event: claim its record through `on_wheel` (the
  /// windowed engine locks the wheel inside multi-shard windows) and run
  /// on_timer, or count a suppressed pop when the timer was cancelled after
  /// hand-over.
  template <typename OnWheel>
  void fire_timer(TimerHandle handle, OnWheel&& on_wheel) {
    NodeId node;
    std::uint64_t cookie;
    const bool live = on_wheel([&](TimerWheel& timers) {
      if (timers.claim(handle, node, cookie)) return true;
      ++suppressed_timers_;  // cancelled after hand-over: a no-op pop
      return false;
    });
    if (!live) return;
    NodeState& fired = nodes_[node];
    if (fired.behavior) fired.behavior->on_timer(fired, cookie);
  }

  Rng rng_;
  Logger logger_;
  std::vector<NodeState> nodes_;  // by NodeId; the Network draws from these
  Network network_;               // the wire, over nodes_
  TimerWheel timers_;
  std::vector<TimerWheel::Due> due_batch_;  // advance() scratch, reused
  std::uint64_t suppressed_timers_ = 0;     // cancelled-after-hand-over pops
  bool started_ = false;
  bool exported_ = false;  // export_migration happened; the engine is dead

 private:
  // --- NodeHost: the engine-independent part of every node's context ------
  void send(NodeId from, NodeId dest, WireMessage msg) override;
  void send_all(NodeId from, const WireMessage& msg) override;
};

/// The serial engine: one event queue.
class World final : public EngineCore {
 public:
  explicit World(WorldConfig config);
  /// Adoption form: continue a sharded segment's run from its exported
  /// snapshot (the reverse migration — see WorldMigration): the queue
  /// adopts the clock and counters, then EngineCore::adopt_core, then the
  /// pending world actions re-land under their original keys.
  World(WorldConfig config, WorldMigration&& migration);
  ~World() override;

  void run_until(RealTime t) override;
  void run_to_quiescence(RealTime hard_deadline) override;

  /// Dispatch every event strictly before `t` (timers pumped exactly as in
  /// run_until), leaving now() at the last dispatch — the handoff cut. Any
  /// event an exported snapshot holds afterwards fires at or after `t`.
  void run_before(RealTime t);

  /// Strip the world for the engine handoff (EngineCore::export_core plus
  /// the deliveries and world actions read out of the queue). The world is
  /// dead afterwards — destroy it (its remaining queue closures point at
  /// engine internals the snapshot re-materializes on the new engine).
  [[nodiscard]] WorldMigration export_migration();

  [[nodiscard]] RealTime now() const override { return queue_.now(); }

  /// Both abort after export_migration: traffic or scheduling through a
  /// dead world would be missing from the snapshot.
  [[nodiscard]] Network& network() override {
    SSBFT_EXPECTS(!exported_);
    return network_;
  }
  [[nodiscard]] EventQueue& queue() override {
    SSBFT_EXPECTS(!exported_);
    return queue_;
  }
  /// The one queue's gauges (also what DutyWorld reports in serial
  /// segments).
  [[nodiscard]] QueueGauges queue_gauges() const;
  void collect_stats(StatsRegistry& reg) const override;

  void schedule(RealTime when, NodeId target,
                std::function<void()> action) override;
  [[nodiscard]] std::uint64_t dispatched() const override {
    // Net of suppressed timer fires: a timer cancelled after hand-over
    // still pops as a no-op, and hand-over timing is backend/engine
    // dependent — netting it out makes the count invariant across the
    // serial/sharded engines AND the wheel/heap timer backends.
    return queue_.dispatched() - suppressed_timers_;
  }

 private:
  [[nodiscard]] const RealTime* trace_clock() const override {
    return queue_.now_ptr();
  }

  // --- NodeHost: what the serial engine does its own way ------------------
  TimerHandle arm_timer(NodeState& node, LocalTime when,
                        std::uint64_t cookie) override;
  bool cancel_timer(TimerHandle handle) override {
    return timers_.cancel(handle);
  }
  Logger& node_log() override { return logger_; }
  /// Every copy lands in the one queue, and every counter is the Network's.
  void place_delivery(RealTime when, EventKey key, NodeId dest,
                      const WireMessage& msg, bool forged) override {
    queue_.emplace<Network::Delivery>(when, key, &network_, dest, forged, msg);
  }
  NetworkStats* window_stats() override { return nullptr; }

  /// The one dispatch loop behind run_until, run_before and
  /// run_to_quiescence: pump due wheel timers, then dispatch every event at
  /// or before `bound` (`inclusive`) or strictly before it.
  void dispatch_to(RealTime bound, bool inclusive);
  /// Hand every wheel timer due at or before `bound` to the event heap.
  void pump_timers(RealTime bound);
  /// Scheduled-closure target: the unlocked EngineCore::fire_timer.
  void fire_timer(TimerHandle handle) {
    EngineCore::fire_timer(handle, [this](auto&& op) { return op(timers_); });
  }

  EventQueue queue_;
};

}  // namespace ssbft
