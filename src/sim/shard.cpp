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
      node_queues_(end_node - first_node) {
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
  Network* net = &world_.network_;
  const auto sink = [this, net](Network::PendingDelivery& p) {
    node_queue(p.dest).emplace<Network::Delivery>(p.when, p.key, net, p.dest,
                                                  p.forged, std::move(p.msg));
  };
  // Key order makes the merge order unobservable; worker order keeps it
  // deterministic anyway.
  for (auto& exec : world_.exec_) exec->outbox[index_].drain(sink);
}

}  // namespace ssbft
