// Node abstraction: the boundary between the simulator and any protocol.
//
// A NodeBehavior sees only what a real process would see — its own id, its
// own (drifting) local clock, message arrivals, and timers it set itself.
// Real time exists solely on the simulator side of this interface; that is
// what makes the self-stabilization claims honest to measure.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/wire.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ssbft {

/// Per-node services provided by the simulator. Lifetime: one object per
/// node for the whole run, whichever engine runs it (see NodeState); it
/// outlives every behavior attached to the node, so a behavior may cache
/// the reference it is handed.
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  [[nodiscard]] virtual NodeId id() const = 0;
  [[nodiscard]] virtual std::uint32_t n() const = 0;

  /// This node's current timer reading τ.
  [[nodiscard]] virtual LocalTime local_now() const = 0;

  /// Unicast. The network stamps the true sender (authenticated channel,
  /// Def. 2.2) — a Byzantine node may lie about *content* but not identity.
  virtual void send(NodeId dest, WireMessage msg) = 0;

  /// "send to all" in the paper's sense: every node including self, each
  /// copy subject to independent network delay.
  virtual void send_all(WireMessage msg) = 0;

  /// Fire on_timer(cookie) when the local clock reads `when` (or immediately
  /// if already past). Returns a handle for cancel_timer/reschedule_timer.
  /// Handlers must still tolerate stale fires — a transient fault can erase
  /// the handle a node meant to cancel with.
  virtual TimerHandle set_timer(LocalTime when, std::uint64_t cookie) = 0;
  virtual TimerHandle set_timer_after(Duration local_delay,
                                      std::uint64_t cookie) = 0;

  /// Cancel an armed timer: O(1), true iff it will now never fire. Safe on
  /// invalid, stale, fired, and already-cancelled handles (returns false).
  virtual bool cancel_timer(TimerHandle handle) = 0;

  /// Cancel-and-rearm in one call; returns the new handle. The old handle
  /// may be invalid/stale (the rearm still happens).
  TimerHandle reschedule_timer(TimerHandle handle, LocalTime when,
                               std::uint64_t cookie) {
    cancel_timer(handle);
    return set_timer(when, cookie);
  }

  virtual Rng& rng() = 0;
  virtual Logger& log() = 0;
};

/// A protocol (or adversary) running on one node.
class NodeBehavior {
 public:
  virtual ~NodeBehavior() = default;

  virtual void on_start(NodeContext&) {}
  virtual void on_message(NodeContext&, const WireMessage&) = 0;
  virtual void on_timer(NodeContext&, std::uint64_t /*cookie*/) {}

  /// Transient-fault hook: overwrite all protocol state with adversarially
  /// chosen garbage. Default: stateless behavior, nothing to scramble.
  virtual void scramble(NodeContext&, Rng&) {}
};

class NodeState;
struct NetworkStats;  // sim/network.hpp

/// What a node's context, and the engine's one Network, need from the
/// engine running the node: now, routing, keyed timer records, the log
/// sink, and the two wire hooks on which the engines differ. EngineCore
/// implements the shared part, World and ShardWorld the rest; behaviors
/// never see it.
class NodeHost {
 public:
  [[nodiscard]] virtual RealTime now() const = 0;
  virtual void send(NodeId from, NodeId dest, WireMessage msg) = 0;
  virtual void send_all(NodeId from, const WireMessage& msg) = 0;
  /// Where one keyed copy in flight lands: build its Network::Delivery in
  /// the queue that dispatches `dest` — or, inside a windowed-engine
  /// window, park it in the executing worker's outbox.
  virtual void place_delivery(RealTime when, EventKey key, NodeId dest,
                              const WireMessage& msg, bool forged) = 0;
  /// The wire counters the calling thread bumps: the executing worker's
  /// inside a window, null (the Network's own) everywhere else.
  [[nodiscard]] virtual NetworkStats* window_stats() = 0;
  /// Arm `node`'s timer for its local time `when`; the fire instant and
  /// key come from NodeState::next_timer.
  virtual TimerHandle arm_timer(NodeState& node, LocalTime when,
                                std::uint64_t cookie) = 0;
  virtual bool cancel_timer(TimerHandle handle) = 0;
  virtual Logger& node_log() = 0;

 protected:
  ~NodeHost() = default;
};

/// One node's record, and the node's one NodeContext for the whole run:
/// clock, streams and key channels next to the behavior they serve, and a
/// host for everything engine-specific. Both engines hold one vector of
/// these indexed by NodeId, built once (derive_node_states) and only ever
/// moved whole: a migration cut hands the vector to the adopting engine,
/// which re-points each record's host. A record thus keeps its address for
/// the whole run, and a behavior may cache the context it is handed.
class NodeState final : public NodeContext {
 public:
  NodeState(NodeId id, std::uint32_t n, NodeHost& host, DriftingClock clock,
            Rng rng, Rng link_rng)
      : clock(clock), behavior_rng(rng), link_rng(link_rng), id_(id), n_(n),
        host_(&host) {}

  /// The adopting engine takes the node over at a migration cut.
  void rehost(NodeHost& host) { host_ = &host; }

  [[nodiscard]] NodeId id() const override { return id_; }
  [[nodiscard]] std::uint32_t n() const override { return n_; }
  [[nodiscard]] LocalTime local_now() const override {
    return clock.local_at(host_->now());
  }
  void send(NodeId dest, WireMessage msg) override {
    host_->send(id_, dest, std::move(msg));
  }
  void send_all(WireMessage msg) override { host_->send_all(id_, msg); }

  TimerHandle set_timer(LocalTime when, std::uint64_t cookie) override {
    return host_->arm_timer(*this, when, cookie);
  }
  TimerHandle set_timer_after(Duration local_delay,
                              std::uint64_t cookie) override {
    return set_timer(local_now() + local_delay, cookie);
  }
  bool cancel_timer(TimerHandle handle) override {
    return host_->cancel_timer(handle);
  }

  Rng& rng() override { return behavior_rng; }
  Logger& log() override { return host_->node_log(); }

  /// The engine half of set_timer: a timer for local time `when`, armed at
  /// real time `now`, fires at `fire` (never in the past) under `key`.
  struct TimerArm {
    RealTime fire;
    EventKey key;
  };
  TimerArm next_timer(LocalTime when, RealTime now) {
    // Odd-channel key: timers and network sends by the same node must not
    // collide in the (creator, seq) space (EventKey doc). Every engine and
    // timer backend arms under this one key, so their dispatch orders
    // coincide.
    return {std::max(clock.real_at(when), now), {id_, timer_seq++ * 2 + 1}};
  }

  DriftingClock clock;
  Rng behavior_rng;             // behavior stream position
  Rng link_rng;                 // per-sender delay/chaos stream position
  std::uint64_t timer_seq = 0;  // odd-channel key position
  std::uint64_t send_seq = 0;   // even-channel key position
  bool started = false;

 private:
  NodeId id_;
  std::uint32_t n_;
  NodeHost* host_;

 public:
  /// Declared last, so destroyed first: the context outlives its behavior.
  std::unique_ptr<NodeBehavior> behavior;  // may be null (no behavior set)
};

}  // namespace ssbft
