// Node abstraction: the boundary between the simulator and any protocol.
//
// A NodeBehavior sees only what a real process would see — its own id, its
// own (drifting) local clock, message arrivals, and timers it set itself.
// Real time exists solely on the simulator side of this interface; that is
// what makes the self-stabilization claims honest to measure.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/clock.hpp"
#include "sim/wire.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ssbft {

/// Per-node services provided by the World. Lifetime: owned by the World,
/// outlives every behavior attached to the node.
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

  /// Engine-migration hook (sim/duty_world.hpp): this node's NodeContext
  /// OBJECT is being replaced — the behavior now lives on another engine
  /// and the old context is about to be destroyed, possibly many times
  /// over one run (recurring chaos alternates engines at every window
  /// edge). A behavior that caches the context pointer from on_start must
  /// re-point it here (and forward to embedded sub-behaviors). Protocol
  /// state must NOT change: the migration is invisible to the protocol by
  /// construction. Default: no cached context, nothing to rebind.
  virtual void rebind(NodeContext&) {}
};

/// One node's engine-side record: everything an engine keeps per node
/// besides its NodeContext object. Both engines hold one vector of these
/// indexed by NodeId, and a migration cut moves that vector whole to the
/// adopting engine, which rebinds each behavior to its own contexts.
struct NodeState {
  DriftingClock clock;
  std::unique_ptr<NodeBehavior> behavior;  // may be null (no behavior set)
  Rng rng{0};                   // behavior stream position
  Rng link_rng{0};              // per-sender delay/chaos stream position
  std::uint64_t timer_seq = 0;  // odd-channel key position
  std::uint64_t send_seq = 0;   // even-channel key position
  bool started = false;
};

}  // namespace ssbft
