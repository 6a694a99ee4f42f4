// One shard of the windowed engine (sim/shard_world.hpp).
//
// A Shard owns a contiguous block of nodes: one slab EventQueue PER NODE,
// the window's steal items, and the window execution of its nodes. The
// node records themselves (each node's NodeContext: clock, behavior,
// streams) sit in the engine's one NodeState vector, the timers in its one
// TimerWheel, and the wire — send, relay, verify, deliver, counters — is
// the engine's one Network (sim/network.hpp); a Shard touches only its own
// block of the vector. Within a lookahead window every node's work is
// independent — any send lands at or after the window end, and only a
// node's own timers create same-window work — so whole nodes are the unit
// of dispatch: a worker claims a node and runs its whole window batch in
// (when, creator, seq) key order before moving on (node-major dispatch).
// Per-node key order is all the digest can see, so who executed a node, and
// in what order the nodes ran, is unobservable. Every copy the Network
// places inside a window parks in the executing worker's outbox and reaches
// its destination queue at the window barrier; the bounded-delay model
// guarantees it lands at or after the next window, so no node ever sees an
// event "from the past".
//
// Engine-internal: user code deploys through Scenario/Cluster and only ever
// sees the WorldBase surface.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/timer_wheel.hpp"
#include "sim/world.hpp"

namespace ssbft {

class ShardWorld;

class Shard {
 public:
  /// A batch of deliveries moving between execution contexts under the
  /// engine's SPSC discipline: exactly one producer fills it (one worker's
  /// private execution context, inside a window) and exactly one consumer
  /// drains it (the destination shard, at the barrier). Each item carries
  /// the full event key, so the destination queue reproduces the serial
  /// dispatch order no matter which barrier inserted it. A message is
  /// copied into the mailbox once and then MOVED into its Delivery slot at
  /// drain: its body is a refcounted pool handle (sim/payload.hpp), so the
  /// handoff transfers the reference — the pool slot filled at send() is
  /// the same one the destination behavior reads.
  class Mailbox {
   public:
    void push(RealTime when, EventKey key, NodeId dest,
              const WireMessage& msg, bool forged) {
      items_.emplace_back(when, key, dest, forged, msg);
    }
    [[nodiscard]] bool empty() const { return items_.empty(); }
    /// Hand every buffered delivery to `sink` (which may move from it),
    /// then reset (the backing capacity is kept for the next window).
    template <typename Sink>
    void drain(Sink&& sink) {
      for (Network::PendingDelivery& p : items_) sink(p);
      items_.clear();
    }

   private:
    std::vector<Network::PendingDelivery> items_;
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

  /// Scheduled-closure target: claim the record and run on_timer.
  void fire_timer(TimerHandle handle);

  ShardWorld& world_;
  std::uint32_t index_;
  NodeId first_node_;
  NodeId end_node_;

  /// One queue per owned node, indexed by id − first_node_.
  std::vector<EventQueue> node_queues_;
  std::vector<NodeId> steal_items_;  // nodes with work this window
  std::uint64_t suppressed_timers_ = 0;  // cancelled-after-hand-over pops
};

}  // namespace ssbft
