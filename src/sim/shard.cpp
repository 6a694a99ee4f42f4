#include "sim/shard.hpp"

#include <algorithm>
#include <utility>

#include "harness/trace.hpp"
#include "sim/shard_world.hpp"
#include "util/assert.hpp"

namespace ssbft {

Shard::Shard(ShardWorld& world, std::uint32_t index, NodeId first_node,
             NodeId end_node)
    : world_(world),
      index_(index),
      first_node_(first_node),
      end_node_(end_node),
      topo_(world.config().topology.resolved(world.config().n)),
      node_queues_(end_node - first_node),
      auth_(world.config().auth, world.config().seed) {
  SSBFT_EXPECTS(first_node_ < end_node_);
}

Shard::~Shard() = default;

NodeState& Shard::state(NodeId id) {
  SSBFT_EXPECTS(owns(id));
  return world_.nodes_[id];
}

EventQueue& Shard::node_queue(NodeId id) {
  SSBFT_ASSERT(owns(id));
  return node_queues_[id - first_node_];
}

NetworkStats& Shard::wire_stats() {
  if (ShardWorld::ExecContext* exec = ShardWorld::tl_exec_) return exec->stats;
  return stats_;
}

std::uint64_t Shard::dispatched() const {
  std::uint64_t total = 0;
  for (const EventQueue& q : node_queues_) total += q.dispatched();
  return total - suppressed_timers_;
}

RealTime Shard::next_pending_time() const {
  RealTime next = RealTime::max();
  for (const EventQueue& q : node_queues_) {
    if (!q.empty()) next = std::min(next, q.next_time());
  }
  return next;
}

void Shard::advance_queues(RealTime t) {
  for (EventQueue& q : node_queues_) q.run_until(t);
}

RealTime Shard::last_queue_now() const {
  RealTime last = RealTime::zero();
  for (const EventQueue& q : node_queues_) last = std::max(last, q.now());
  return last;
}

Duration Shard::sample_delay(NodeState& from) {
  // Same draw order as Network::sample_delay: link then processing.
  const WorldConfig& config = world_.config();
  return config.link_delay.sample(from.link_rng) +
         config.proc_delay.sample(from.link_rng);
}

void Shard::send(NodeId from, NodeId dest, WireMessage msg) {
  // Unicast copies are always direct — a behavior echoing back a received
  // relay copy must not re-disseminate it (see Network::send).
  stamp(from, msg, kRouteDirect);
  admit(from, dest, msg);
}

void Shard::stamp(NodeId from, WireMessage& msg,
                  std::uint8_t route_mark) const {
  msg.sender = from;       // authenticated identity (Def. 2.2)
  msg.route = route_mark;  // dissemination duty; outside the signed fields
  auth_.sign(msg);         // tag at origin (binds the sender)
}

void Shard::admit(NodeId from, NodeId dest, const WireMessage& msg) {
  SSBFT_EXPECTS(dest < world_.n());
  NetworkStats& stats = wire_stats();
  ++stats.sent;
  stats.per_kind[std::size_t(msg.kind)]++;
  stats.payload_bytes += msg.payload.size();
  NodeState& sender = state(from);
  const Duration delay = sample_delay(sender);
  const RealTime when = world_.now() + delay;
  const EventKey key{from, sender.send_seq++ * 2};  // even channel: network
  dispatch_send(dest, when, key, msg);
}

void Shard::dispatch_send(NodeId dest, RealTime when, EventKey key,
                          const WireMessage& msg) {
  // Delay recomputed only for the lookahead assertions below.
  [[maybe_unused]] const Duration delay = when - world_.now();
  if (ShardWorld::ExecContext* exec = ShardWorld::tl_exec_) {
    // Inside a window even a same-shard destination may be executing on
    // another worker right now, so EVERY send parks in the worker's private
    // outbox and merges at the barrier. The bounded-delay model is what
    // makes this safe — the delivery cannot precede the next window — and
    // the queue's key order makes the detour unobservable.
    SSBFT_ASSERT(delay >= world_.lookahead());
    exec->outbox[world_.shard_index_[dest]].push(when, key, dest, msg);
    return;
  }
  // Serial phase (on_start, scramble, piecewise runs): no concurrency,
  // insert straight into the owning shard.
  world_.shard_of(dest).schedule_delivery(when, key, dest, msg,
                                          /*forged=*/false);
}

void Shard::send_all(NodeId from, const WireMessage& msg) {
  // Stamped once, then counted, delayed and keyed per destination in the
  // order of the serial Network::send_all, so a seeded run is
  // bit-identical either way.
  WireMessage stamped = msg;
  stamp(from, stamped, kRouteDirect);
  if (!topo_.active()) {
    for (NodeId dest = 0; dest < world_.n(); ++dest) {
      admit(from, dest, stamped);
    }
    return;
  }
  // Overlay: the origin emits only its own share; receivers of route-marked
  // copies forward the rest at delivery — same targets, same order as the
  // serial engine's Network::send_all.
  topology_origin_targets(topo_, world_.n(), from,
                          [&](NodeId dest, std::uint8_t route_mark) {
                            stamped.route = route_mark;
                            admit(from, dest, stamped);
                          });
}

void Shard::relay(NodeId self, const WireMessage& msg) {
  if (!topo_.active() || msg.route == kRouteDirect) return;
  ++wire_stats().topology_hops;
  trace::instant(TraceLayer::kWorkload, TraceName::kRelay, self,
                 std::int64_t(msg.route));
  topology_relay_targets(
      topo_, world_.n(), self, msg.sender, msg.route,
      [&](NodeId dest, std::uint8_t route_mark) {
        // Forwarded bytes keep the ORIGIN's sender and tag; the relay node
        // pays the delay/key draws from its own streams (which this shard —
        // or the executing worker — owns at the delivery instant), so
        // both engines draw identically. Not re-counted as sent.
        WireMessage copy = msg;
        copy.route = route_mark;
        ++wire_stats().fanout_msgs;
        NodeState& relay_node = state(self);
        const Duration delay = sample_delay(relay_node);
        const RealTime when = world_.now() + delay;
        const EventKey key{self, relay_node.send_seq++ * 2};
        dispatch_send(dest, when, key, copy);
      });
}

void Shard::schedule_delivery(RealTime when, EventKey key, NodeId dest,
                              const WireMessage& msg, bool forged) {
  SSBFT_EXPECTS(owns(dest));
  node_queue(dest).emplace<Delivery>(when, key, this, dest, forged, msg);
}

void Shard::Delivery::operator()() const {
  // The authenticator check runs at the delivery instant, as a pure
  // function of message content, so serial, sharded, and migrated runs
  // reject the same copies at the same points of the total order (see
  // Network::Delivery).
  if (!shard->auth_.verify(msg)) {
    shard->reject(dest);
    return;
  }
  shard->relay(dest, msg);  // relay duty precedes local processing
  if (!forged) ++shard->wire_stats().delivered;
  shard->deliver(dest, msg);
}

void Shard::schedule_action(RealTime when, EventKey key, NodeId target,
                            std::function<void()> action) {
  SSBFT_EXPECTS(owns(target));
  node_queue(target).schedule(when, key,
                              WorldAction{target, std::move(action)});
}

void Shard::schedule_timer(const TimerWheel::Due& due) {
  Shard* shard = this;
  node_queue(NodeId(due.key.creator))
      .schedule(due.when, due.key,
                [shard, handle = due.handle] { shard->fire_timer(handle); });
}

void Shard::deliver(NodeId dest, const WireMessage& msg) {
  NodeState& node = state(dest);
  if (node.behavior) node.behavior->on_message(node, msg);
}

void Shard::reject(NodeId dest) {
  ++wire_stats().auth_rejected;
  trace::instant(TraceLayer::kWorkload, TraceName::kAuthReject, dest);
}

void Shard::fire_timer(TimerHandle handle) {
  NodeId node;
  std::uint64_t cookie;
  const bool live = world_.on_wheel([&](TimerWheel& timers) {
    if (timers.claim(handle, node, cookie)) return true;
    ++suppressed_timers_;  // cancelled after hand-over: a no-op pop
    return false;
  });
  if (!live) return;
  NodeState& fired = state(node);
  if (fired.behavior) fired.behavior->on_timer(fired, cookie);
}

void Shard::build_steal_items(RealTime end, bool inclusive) {
  steal_items_.clear();
  for (NodeId id = first_node_; id < end_node_; ++id) {
    EventQueue& queue = node_queue(id);
    if (queue.empty()) continue;
    const RealTime next = queue.next_time();
    if (inclusive ? next <= end : next < end) steal_items_.push_back(id);
  }
}

std::uint64_t Shard::run_node_window(NodeId id, RealTime end, bool inclusive) {
  EventQueue& queue = node_queue(id);
  const trace::Scope traced(world_.config().tracer, queue.now_ptr());
  ShardWorld::ExecContext* exec = ShardWorld::tl_exec_;
  const std::uint64_t before = queue.dispatched();
  while (!queue.empty()) {
    const RealTime next = queue.next_time();
    if (inclusive ? next > end : next >= end) break;
    queue.run_one();
    if (exec != nullptr) exec->logger.set_now(queue.now());
  }
  return queue.dispatched() - before;
}

void Shard::drain_inboxes() {
  // Each parked message moves once more: straight into its Delivery slot.
  const auto sink = [this](Pending& p) {
    node_queue(p.dest).emplace<Delivery>(p.when, p.key, this, p.dest,
                                         /*forged=*/false, std::move(p.msg));
  };
  // Key order makes the merge order unobservable; worker order keeps it
  // deterministic anyway.
  for (auto& exec : world_.exec_) exec->outbox[index_].drain(sink);
}

}  // namespace ssbft
