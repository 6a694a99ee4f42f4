// Bounded-delay authenticated message-passing network (paper Def. 2).
//
// While non-faulty, every message is delivered within δ and processed within
// π of arrival, and the sender identity is never tampered with. While
// *faulty* (the transient period before ι0), the network may drop, delay
// beyond δ, duplicate, or corrupt messages — and the fault injector may
// plant messages with forged senders, modelling arbitrary in-flight state.
//
// Bytes and tags: every send path signs at origin under the configured
// AuthKind (sim/auth.hpp) and every delivery closure verifies — a failed
// check counts as auth_rejected, taps kRejected, and never reaches the
// behavior. Message bodies ride as Payload handles (sim/payload.hpp): the
// process-wide refcounted pool owns all in-flight bytes, so unicast send,
// broadcast fan-out, chaos duplicates, and migration snapshots all share
// one copy of a pooled body — copying a WireMessage bumps a refcount, it
// never copies payload bytes. See docs/wire-format.md.
//
// One wire layer for every engine: the engine core both the serial World
// and the windowed ShardWorld derive from (EngineCore, sim/world.hpp) owns
// one Network and routes every send, relay, verify and delivery through
// it. Only two things differ between the engines, and both are
// NodeHost hooks (sim/node.hpp): where a keyed copy lands (place_delivery —
// the serial queue, a node queue, or inside a window the executing worker's
// outbox) and which counters the calling thread bumps (window_stats). Taps,
// delay oracles and chaos windows are serial-only: the windowed engine
// never installs them, so its workers only read the Network's own state.
//
// Every copy in flight is one Network::Delivery event in an event queue,
// and nothing else records it: an engine migration reads the in-flight set
// straight out of the queues (EventQueue::for_each_pending).
//
// Per-sender streams (delay/chaos RNG, even-channel key seq) are not the
// Network's own: it draws them from the owning engine's NodeState vector
// (sim/node.hpp), so the node records a migration cut moves already carry
// every sender's position.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

#include "sim/auth.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/node.hpp"
#include "sim/payload.hpp"
#include "sim/tap.hpp"
#include "sim/topology.hpp"
#include "sim/wire.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ssbft {

/// Misbehaviour applied while the network is faulty.
struct ChaosConfig {
  double drop_prob = 0.4;
  double duplicate_prob = 0.15;
  double corrupt_prob = 0.25;
  /// Delay cap during chaos; may exceed δ arbitrarily. Zero ⇒ 20× the
  /// actual link-delay cap, chosen at construction and clamped to a
  /// positive floor — a zero-width link-delay model must not degenerate
  /// the chaos window to instantaneous delivery (chaos_delay_floor()).
  Duration max_delay = Duration::zero();
};

/// Smallest chaos delay cap the Network accepts: the fallback for
/// degenerate (all-zero) link-delay models, and the floor any configured
/// cap is clamped to.
[[nodiscard]] constexpr Duration chaos_delay_floor() { return microseconds(1); }

/// One chaos window [start, end): the network misbehaves for every message
/// SENT inside it. Misbehaviour is decided at send time — a chaos-delayed
/// copy may land well after the window closes (that is the point).
struct ChaosWindow {
  RealTime start{};
  RealTime end{};
};

struct NetworkStats {
  std::uint64_t sent = 0;        // send() calls admitted to the network
  std::uint64_t delivered = 0;   // copies handed to a destination
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t forged = 0;      // injected with a fake sender
  std::uint64_t auth_rejected = 0;  // failed the authenticator at delivery
  std::uint64_t payload_bytes = 0;  // per-copy payload bytes admitted
  /// Topology overlay counters (sim/topology.hpp) — deliveries that arrived
  /// via a relayed route, and copies put on the wire by relay duty. Both are
  /// zero under the flat topology and deliberately OUTSIDE run_digest: the
  /// digest's field list predates the overlay, and flat runs must keep
  /// digest parity with pre-topology builds.
  std::uint64_t topology_hops = 0;
  std::uint64_t fanout_msgs = 0;
  std::array<std::uint64_t, std::size_t(MsgKind::kNumKinds)> per_kind{};

  /// Field-wise sum — how the windowed engine folds each worker's window
  /// counters into the Network's. Lives next to the fields so a new counter
  /// cannot be added without the aggregation (and run_digest) coming into
  /// view.
  NetworkStats& operator+=(const NetworkStats& other) {
    sent += other.sent;
    delivered += other.delivered;
    dropped += other.dropped;
    duplicated += other.duplicated;
    corrupted += other.corrupted;
    forged += other.forged;
    auth_rejected += other.auth_rejected;
    payload_bytes += other.payload_bytes;
    topology_hops += other.topology_hops;
    fanout_msgs += other.fanout_msgs;
    for (std::size_t k = 0; k < per_kind.size(); ++k) {
      per_kind[k] += other.per_kind[k];
    }
    return *this;
  }

  bool operator==(const NetworkStats&) const = default;
};

/// Every counter by name, and the non-zero per_kind entries by kind — so a
/// failing whole-struct comparison names the diverging counter.
std::ostream& operator<<(std::ostream& os, const NetworkStats& stats);

class Network {
 public:
  /// The destination behavior's on_message runs at the (real) instant it
  /// finishes processing the message — i.e. arrival + processing delay.
  /// All random draws (delays, chaos misbehaviour) come from per-SENDER
  /// streams — `nodes[sender].link_rng`, derived from `(seed, sender)` (see
  /// derive_link_rng) — so sampling depends only on each sender's own send
  /// history, never on the global interleaving or the engine. `host` (the
  /// engine: clock, placement, counters) and `nodes` (one per node) must
  /// outlive the Network.
  Network(NodeHost& host, std::vector<NodeState>& nodes,
          DelayModel link_delay, DelayModel proc_delay, ChaosConfig chaos,
          std::uint64_t seed, AuthKind auth = AuthKind::kNull);

  /// Authenticated send: `msg.sender` is overwritten with `from` and the
  /// tag stamped under the configured scheme. A pooled payload body is
  /// never copied — every delivery event (and any chaos duplicate) shares
  /// the sender's pool slot by reference.
  void send(NodeId from, NodeId dest, WireMessage msg);

  /// Broadcast to every node (self included). The sender, route marker and
  /// tag are stamped once — the tag binds sender and content, not the
  /// destination, so all copies are identical — and each copy is then
  /// counted, tapped, delayed and keyed per destination exactly as n
  /// unicast sends in destination order would be, so seeded runs are
  /// bit-exact with them. Every copy shares the message's pooled payload
  /// slot. Non-flat topologies (set_topology) move the fan-out onto the
  /// dissemination overlay: the origin emits only its
  /// topology_origin_targets and receivers forward route-marked copies at
  /// delivery — every node still gets exactly one copy.
  void send_all(NodeId from, const WireMessage& msg);

  /// Install the dissemination overlay (sim/topology.hpp). Must precede
  /// all traffic; pass the resolved config. Default: flat (all-to-all).
  void set_topology(const TopologyConfig& topo) {
    SSBFT_EXPECTS(stats_.sent == 0 && stats_.forged == 0);
    topo_ = topo;
  }
  [[nodiscard]] const TopologyConfig& topology() const { return topo_; }

  /// Fault-injector backdoor: place a message (possibly with a forged
  /// sender) on the wire, delivered after `delay`. Scheduled under the
  /// reserved forged channel (kForgedCreator) with a per-network monotone
  /// seq, so forged deliveries have a content-based key — insertion order
  /// would be a determinism hazard on the sharded engines.
  void inject_raw(NodeId dest, WireMessage msg, Duration delay);

  /// The network behaves arbitrarily until `t`; from `t` on it is non-faulty
  /// (Def. 3 then starts its ∆net countdown). Sugar for one window
  /// [min(), t) — see set_faulty_windows for the recurring form.
  void set_faulty_until(RealTime t) {
    set_faulty_windows({ChaosWindow{RealTime::min(), t}});
  }

  /// Recurring chaos duty cycle: the network misbehaves inside each window
  /// and is non-faulty between them. Windows must be sorted, non-overlapping
  /// and non-empty (start < end). Replaces any previous schedule; the faulty
  /// test is a monotone cursor over the list, so lookups stay O(1) as
  /// simulation time advances.
  void set_faulty_windows(std::vector<ChaosWindow> windows) {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      SSBFT_EXPECTS(windows[i].start < windows[i].end);
      SSBFT_EXPECTS(i == 0 || windows[i - 1].end <= windows[i].start);
    }
    windows_ = std::move(windows);
    window_cursor_ = 0;
  }

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }

  /// Attach a wire-level observer (see sim/tap.hpp). Pass nullptr to detach.
  void set_tap(TapFn tap) { tap_ = std::move(tap); }

  /// Adversarial scheduling hook (src/check): when set, consulted per
  /// non-faulty message; a returned value replaces the sampled link+proc
  /// delay. The oracle must respect the model bound (≤ δ+π) for results to
  /// say anything about the paper's claims — the explorer clamps. Return
  /// nullopt to fall back to sampling. `seq` counts oracle consultations.
  using DelayOracle = std::function<std::optional<Duration>(
      NodeId from, NodeId dest, const WireMessage& msg, std::uint64_t seq)>;
  void set_delay_oracle(DelayOracle oracle) { oracle_ = std::move(oracle); }

  [[nodiscard]] Duration max_link_delay() const { return link_delay_.max; }
  [[nodiscard]] Duration max_proc_delay() const { return proc_delay_.max; }
  /// The resolved chaos delay cap (fallback applied, floor clamped).
  [[nodiscard]] Duration chaos_max_delay() const { return chaos_.max_delay; }

  /// Live slots in the process-wide payload pool (diagnostics/tests; zero
  /// after a run once every queue closure, snapshot, and probe let go).
  [[nodiscard]] std::uint32_t live_payloads() const {
    return payload_pool().live();
  }

  /// The delivery-side verifier (tests; key derives from the world seed).
  [[nodiscard]] const Authenticator& authenticator() const { return auth_; }

  /// Fold one worker's window counters into the totals (the windowed
  /// engine's barrier step; the caller resets its copy).
  void add_stats(const NetworkStats& window) { stats_ += window; }

  // --- engine-migration surface (sim/duty_world.hpp) -----------------------

  /// One copy in flight, as it sits in an event queue: verify, relay,
  /// count, then hand to the destination behavior — at the delivery
  /// instant, on every engine. Forged plants (inject_raw) skip the
  /// delivered/tap accounting.
  struct Delivery {
    Network* net;
    NodeId dest;
    bool forged;
    WireMessage msg;
    void operator()() const;
  };

  /// One delivery event in flight outside a queue — read out at a
  /// migration cut, or parked in a windowed-engine mailbox until the
  /// barrier: everything needed to re-materialize it, with its original
  /// key, in any engine's queue.
  struct PendingDelivery {
    RealTime when;
    EventKey key;
    NodeId dest = 0;
    bool forged = false;  // inject_raw plant: no delivered/tap accounting
    WireMessage msg{};
  };

  /// Forged-channel key seq position (migrated at a handoff).
  [[nodiscard]] std::uint64_t forged_seq() const { return forged_seq_; }

  /// Adopt the migrated world-level counters (forged channel, wire stats).
  void adopt_world_counters(std::uint64_t forged_seq,
                            const NetworkStats& stats) {
    forged_seq_ = forged_seq;
    stats_ = stats;
  }
  /// Re-materialize one migrated in-flight delivery under its ORIGINAL
  /// (when, creator, seq) key — the funnel every adoption constructor uses.
  void adopt_delivery(const PendingDelivery& pending) {
    schedule_delivery(pending.when, pending.key, pending.dest, pending.msg,
                      pending.forged);
  }

 private:
  /// Sample (or ask the oracle for) one non-faulty link+processing delay,
  /// drawn from `from`'s stream.
  [[nodiscard]] Duration sample_delay(NodeId from, NodeId dest,
                                      const WireMessage& msg);

  /// Next even-channel (network) EventKey for an event caused by `from`.
  [[nodiscard]] EventKey next_key(NodeId from) {
    return EventKey{from, nodes_[from].send_seq++ * 2};
  }

  /// The counters the calling thread bumps: inside a windowed-engine
  /// window the executing worker's, otherwise the Network's own.
  [[nodiscard]] NetworkStats& counters() {
    NetworkStats* window = host_.window_stats();
    return window != nullptr ? *window : stats_;
  }

  /// Is the network faulty at `now`, the current simulation instant?
  /// Advances the window cursor monotonically (time never rewinds). Never
  /// writes without windows, so the windowed engine's workers may call it
  /// concurrently.
  [[nodiscard]] bool faulty_at(RealTime now) {
    while (window_cursor_ < windows_.size() &&
           now >= windows_[window_cursor_].end) {
      ++window_cursor_;
    }
    return window_cursor_ < windows_.size() &&
           now >= windows_[window_cursor_].start;
  }

  /// Stamp the authenticated sender, the route marker and the tag at
  /// origin — once per send or broadcast.
  void stamp(NodeId from, WireMessage& msg, std::uint8_t route) const;
  /// Admit one stamped copy for `dest` at `now`: count (into `stats`), tap,
  /// route — the shared body of send() and both send_all fan-outs.
  void admit(NetworkStats& stats, RealTime now, NodeId from, NodeId dest,
             const WireMessage& msg);
  /// Relay duty at the delivery instant: a verified copy whose route marker
  /// is non-direct is forwarded (topology_relay_targets) BEFORE the
  /// behavior sees it, preserving the origin's sender and tag. Runs first
  /// so the relay node's outgoing stream/key draws are a pure function of
  /// its arrival order — identical on both engines.
  void relay(NetworkStats& stats, NodeId self, const WireMessage& msg);
  /// Delay and key one copy sent at `now` and schedule its delivery; while
  /// faulty, hand it to route_chaos instead.
  void route(RealTime now, NodeId from, NodeId dest, const WireMessage& msg);
  /// Chaos verdicts for one copy: drop, corrupt (a private copy), delay,
  /// duplicate — all drawn from `from`'s stream.
  void route_chaos(RealTime now, NodeId from, NodeId dest,
                   const WireMessage& msg);
  void corrupt(NodeId from, WireMessage& msg);
  void tap(TapEvent::Kind kind, NodeId from, NodeId to, const WireMessage& msg);

  /// Hand one keyed copy to the engine (NodeHost::place_delivery), which
  /// builds its Delivery event in a queue slot or parks it in a worker
  /// outbox. EVERY delivery path (non-faulty unicast and broadcast fan-out,
  /// relay, chaos, duplicates, forged plants, adoption) funnels through
  /// here, so a migration that reads Delivery events sees them all; a
  /// pooled payload body rides each copy as a slot reference.
  void schedule_delivery(RealTime when, EventKey key, NodeId dest,
                         const WireMessage& msg, bool forged) {
    host_.place_delivery(when, key, dest, msg, forged);
  }
  /// Delivery-side authenticator failure: count, tap, trace, discard.
  void reject(NetworkStats& stats, NodeId dest, const WireMessage& msg);

  NodeHost& host_;
  std::vector<NodeState>& nodes_;  // per-node records (the engine's)
  std::uint32_t n_;
  DelayModel link_delay_;
  DelayModel proc_delay_;
  ChaosConfig chaos_;
  std::uint64_t forged_seq_ = 0;  // forged-channel key seq
  // Chaos duty schedule (sorted, disjoint) + monotone lookup cursor.
  std::vector<ChaosWindow> windows_;
  std::size_t window_cursor_ = 0;
  NetworkStats stats_;
  TopologyConfig topo_{};  // resolved dissemination overlay (default: flat)
  TapFn tap_;
  DelayOracle oracle_;
  std::uint64_t oracle_seq_ = 0;
  Authenticator auth_;
};

static_assert(EventQueue::stores_inline<Network::Delivery>);

}  // namespace ssbft
