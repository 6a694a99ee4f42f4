// One shard of the windowed engine (sim/shard_world.hpp).
//
// A Shard owns a contiguous block of nodes: one slab EventQueue PER NODE,
// and wire counters. The node records themselves (each node's
// NodeContext: clock, behavior, streams) sit in the engine's one NodeState
// vector, and the timers in its one TimerWheel; a Shard touches only its
// own block of the vector. Within a lookahead window every node's work is
// independent — any send lands at or after the window end, and only a
// node's own timers create same-window work — so whole nodes are the unit
// of dispatch: a worker claims a node and runs its whole window batch in
// (when, creator, seq) key order before moving on (node-major dispatch).
// Per-node key order is all the digest can see, so who executed a node, and
// in what order the nodes ran, is unobservable. Every send made inside a
// window parks in the executing worker's outbox and reaches its destination
// queue at the window barrier; the bounded-delay model guarantees it lands
// at or after the next window, so no node ever sees an event "from the
// past".
//
// Engine-internal: user code deploys through Scenario/Cluster and only ever
// sees the WorldBase surface.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/auth.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"  // NetworkStats
#include "sim/node.hpp"
#include "sim/timer_wheel.hpp"
#include "sim/world.hpp"

namespace ssbft {

class ShardWorld;

class Shard {
 public:
  /// A delivery waiting at the window barrier. Carries the full
  /// event key so the destination queue reproduces the serial dispatch
  /// order no matter which barrier inserted it.
  struct Pending {
    RealTime when;
    EventKey key;
    NodeId dest;
    WireMessage msg;
  };

  /// A batch of deliveries moving between execution contexts under the
  /// engine's SPSC discipline: exactly one producer fills it (one worker's
  /// private execution context, inside a window) and exactly one consumer
  /// drains it (the destination shard, at the barrier). A message is
  /// copied into the mailbox once and then MOVED into its Delivery slot at
  /// drain: a Pending's WireMessage holds its body as a refcounted pool
  /// handle (sim/payload.hpp), so the handoff transfers the reference —
  /// the pool slot filled at send() is the same one the destination
  /// behavior reads.
  class Mailbox {
   public:
    void push(RealTime when, EventKey key, NodeId dest,
              const WireMessage& msg) {
      items_.emplace_back(when, key, dest, msg);
    }
    [[nodiscard]] bool empty() const { return items_.empty(); }
    /// Hand every buffered delivery to `sink` (which may move from it),
    /// then reset (the backing capacity is kept for the next window).
    template <typename Sink>
    void drain(Sink&& sink) {
      for (Pending& p : items_) sink(p);
      items_.clear();
    }

   private:
    std::vector<Pending> items_;
  };

  Shard(ShardWorld& world, std::uint32_t index, NodeId first_node,
        NodeId end_node);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  [[nodiscard]] bool owns(NodeId id) const {
    return id >= first_node_ && id < end_node_;
  }

  // --- engine surface -----------------------------------------------------
  /// Queue dispatches net of suppressed (cancelled-after-hand-over) timer
  /// pops — the engine-invariant event count (see World::dispatched).
  [[nodiscard]] std::uint64_t dispatched() const;
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }

  /// Earliest pending event across this shard's node queues (max() when
  /// none). The window planner folds this into its earliest-event
  /// fast-forward.
  [[nodiscard]] RealTime next_pending_time() const;
  /// Advance every queue clock to `t` (serial run_until semantics; nothing
  /// at or before `t` may remain pending).
  void advance_queues(RealTime t);
  /// Latest dispatch clock across this shard's queues.
  [[nodiscard]] RealTime last_queue_now() const;

  /// Move every worker outbox addressed here into the node queues, in
  /// worker order. Caller (the window barrier) guarantees the producers are
  /// parked.
  void drain_inboxes();

  /// One copy in flight in a node queue, mirroring Network::Delivery:
  /// verify, relay, count, then deliver. Forged plants (inject_raw) skip
  /// the delivered accounting but face the same delivery-instant
  /// authenticator check as authentic traffic.
  struct Delivery {
    Shard* shard;
    NodeId dest;
    bool forged;
    WireMessage msg;
    void operator()() const;
  };

  /// Build a Delivery in its slot on THIS shard (dest must be owned) —
  /// the one copy of the message the event makes. Used by the serial-phase
  /// send path, by ShardWorld for forged plants, and by adoption;
  /// drain_inboxes moves parked messages in directly.
  void schedule_delivery(RealTime when, EventKey key, NodeId dest,
                         const WireMessage& msg, bool forged);

  /// Park a WorldAction for `target` in target's node queue.
  /// Serial phases / barrier only.
  void schedule_action(RealTime when, EventKey key, NodeId target,
                       std::function<void()> action);

  /// Park a timer's fire event in its node's queue (the timer key's
  /// creator is the owning node): plan time and serial phases, or inside a
  /// window by the worker running that node.
  void schedule_timer(const TimerWheel::Due& due);

  // --- window machinery (see ShardWorld::run_windows) ---------------------

  /// List every node with runnable work in [*, end] — the window's steal
  /// items. Runs at plan time (all workers parked), after the engine has
  /// handed the window's due timers to the node queues.
  void build_steal_items(RealTime end, bool inclusive);
  [[nodiscard]] std::vector<NodeId>& steal_items() { return steal_items_; }
  /// Execute one node's whole window batch: its queue in key order up to
  /// the gate. Returns events dispatched. Caller owns the exec context.
  std::uint64_t run_node_window(NodeId id, RealTime end, bool inclusive);

 private:
  friend class ShardWorld;

  /// An owned node's record in the engine's NodeState vector.
  [[nodiscard]] NodeState& state(NodeId id);

  /// An owned node's event queue: its deliveries, timers and actions.
  [[nodiscard]] EventQueue& node_queue(NodeId id);

  /// Wire counters for the CURRENT execution context: the per-worker stats
  /// while a window is executing (merged at the barrier), the shard's own
  /// otherwise.
  [[nodiscard]] NetworkStats& wire_stats();

  /// Authenticated send from an owned node: samples the sender's delay
  /// stream and routes to the worker's outbox (inside a window) or straight
  /// into the destination shard (serial phases).
  void send(NodeId from, NodeId dest, WireMessage msg);
  /// Stamp once, then admit one copy per destination (see
  /// Network::send_all).
  void send_all(NodeId from, const WireMessage& msg);
  /// Stamp the sender, route marker and tag at origin (Network::stamp).
  void stamp(NodeId from, WireMessage& msg, std::uint8_t route) const;
  /// Admit one stamped copy: count, delay, key, park — the shared body of
  /// send() and both send_all fan-outs (see Network::admit).
  void admit(NodeId from, NodeId dest, const WireMessage& msg);
  /// Park one keyed delivery where it belongs: the executing worker's
  /// outbox, or (serial phases) straight into the owning shard — the
  /// routing tail shared by admit() and relay().
  void dispatch_send(NodeId dest, RealTime when, EventKey key,
                     const WireMessage& msg);
  /// Relay duty at the delivery instant (mirrors Network::relay): forward a
  /// verified route-marked copy BEFORE the behavior sees it, preserving the
  /// origin's sender/tag, drawing delays and keys from the relay node's own
  /// streams.
  void relay(NodeId self, const WireMessage& msg);
  [[nodiscard]] Duration sample_delay(NodeState& from);

  void deliver(NodeId dest, const WireMessage& msg);

  /// Delivery-instant authenticator failure: count it (in the CURRENT
  /// execution context's counters) and emit the trace instant. The copy is
  /// discarded — the behavior never sees it.
  void reject(NodeId dest);

  /// Scheduled-closure target: claim the record and run on_timer.
  void fire_timer(TimerHandle handle);

  ShardWorld& world_;
  std::uint32_t index_;
  NodeId first_node_;
  NodeId end_node_;
  TopologyConfig topo_{};  // resolved dissemination overlay (default: flat)

  /// One queue per owned node, indexed by id − first_node_.
  std::vector<EventQueue> node_queues_;
  std::vector<NodeId> steal_items_;  // nodes with work this window
  std::uint64_t suppressed_timers_ = 0;  // cancelled-after-hand-over pops
  /// Same scheme + key as the serial Network's (both derive from the world
  /// seed), so a migrated run keeps verifying its own traffic.
  Authenticator auth_;
  NetworkStats stats_;
};

static_assert(EventQueue::stores_inline<Shard::Delivery>);

}  // namespace ssbft
