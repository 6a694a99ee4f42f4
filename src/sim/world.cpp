#include "sim/world.hpp"

#include <utility>

#include "harness/stats_registry.hpp"
#include "harness/trace.hpp"
#include "util/assert.hpp"

namespace ssbft {

void WorldConfig::resolve_delay_models() {
  if (has_delay_models) return;
  // Default: typical delay well below the bound δ with an exponential
  // tail capped at δ — the regime the paper's message-driven design
  // targets ("actual delivery time... may be significantly faster than
  // the worst case"). Benches that stress delays at the bound override
  // this explicitly.
  link_delay = DelayModel::exp_truncated(delta / 5, delta);
  proc_delay = DelayModel::uniform(Duration::zero(), pi);
  has_delay_models = true;
}

DriftingClock derive_node_clock(const WorldConfig& config, NodeId id) {
  Rng rng = rng_stream(config.seed, RngDomain::kNodeClock, id);
  // Arbitrary offsets, drift within ±ρ: the post-transient reality.
  const double rate = 1.0 + config.rho * (2.0 * rng.next_double() - 1.0);
  const Duration offset{rng.next_in(0, config.max_clock_offset.ns())};
  return DriftingClock{rate, offset};
}

std::vector<NodeState> derive_node_states(const WorldConfig& config,
                                          NodeHost& host) {
  std::vector<NodeState> nodes;
  nodes.reserve(config.n);  // never reallocated: behaviors cache records
  for (NodeId id = 0; id < config.n; ++id) {
    nodes.emplace_back(id, config.n, host, derive_node_clock(config, id),
                       derive_node_rng(config.seed, id),
                       derive_link_rng(config.seed, id));
  }
  return nodes;
}

WorldBase::WorldBase(const WorldConfig& config) : config_(config) {
  SSBFT_EXPECTS(config_.n > 0);
  config_.resolve_delay_models();
  SSBFT_EXPECTS(config_.link_delay.max <= config_.delta);
  SSBFT_EXPECTS(config_.proc_delay.max <= config_.pi);
}

WorldBase::~WorldBase() = default;

EngineCore::EngineCore(const WorldConfig& config)
    : WorldBase(config),
      rng_(config_.seed),
      logger_(config_.log_level),
      nodes_(derive_node_states(config_, *this)),
      network_(*this, nodes_, config_.link_delay, config_.proc_delay,
               config_.chaos, config_.seed, config_.auth) {
  network_.set_topology(config_.topology.resolved(config_.n));
}

EngineCore::~EngineCore() = default;

void EngineCore::set_behavior(NodeId id,
                              std::unique_ptr<NodeBehavior> behavior) {
  SSBFT_EXPECTS(id < config_.n);
  NodeState& node = nodes_[id];
  node.behavior = std::move(behavior);
  node.started = false;
  if (started_ && node.behavior) {
    node.behavior->on_start(node);
    node.started = true;
  }
}

NodeBehavior* EngineCore::behavior(NodeId id) {
  SSBFT_EXPECTS(id < config_.n);
  return nodes_[id].behavior.get();
}

void EngineCore::start() {
  started_ = true;
  const trace::Scope traced(config_.tracer, trace_clock());
  for (NodeId id = 0; id < config_.n; ++id) {
    NodeState& node = nodes_[id];
    if (node.behavior && !node.started) {
      node.behavior->on_start(node);
      node.started = true;
    }
  }
}

LocalTime EngineCore::local_now(NodeId id) const {
  SSBFT_EXPECTS(id < config_.n);
  return nodes_[id].clock.local_at(now());
}

RealTime EngineCore::real_at(NodeId id, LocalTime tau) const {
  SSBFT_EXPECTS(id < config_.n);
  return nodes_[id].clock.real_at(tau);
}

DriftingClock& EngineCore::clock(NodeId id) {
  SSBFT_EXPECTS(id < config_.n);
  return nodes_[id].clock;
}

void EngineCore::scramble_node(NodeId id) {
  SSBFT_EXPECTS(id < config_.n);
  NodeState& node = nodes_[id];
  if (node.behavior) node.behavior->scramble(node, node.behavior_rng);
}

void EngineCore::inject_raw(NodeId dest, WireMessage msg, Duration delay) {
  SSBFT_EXPECTS(window_stats() == nullptr);  // serial phases only
  SSBFT_EXPECTS(!exported_);
  network_.inject_raw(dest, std::move(msg), delay);
}

void EngineCore::send(NodeId from, NodeId dest, WireMessage msg) {
  network_.send(from, dest, std::move(msg));
}

void EngineCore::send_all(NodeId from, const WireMessage& msg) {
  network_.send_all(from, msg);
}

WorldMigration EngineCore::export_core(std::uint64_t world_seq) {
  SSBFT_EXPECTS(!exported_);
  exported_ = true;
  WorldMigration m;
  m.now = now();
  m.dispatched = dispatched();
  m.world_seq = world_seq;
  m.forged_seq = network_.forged_seq();
  m.stats = network_.stats();
  m.world_rng = rng_;
  m.nodes = std::move(nodes_);
  m.timers = std::move(timers_);
  m.timers.recall_handed_over();  // their fire events die with the queues
  return m;
}

void EngineCore::adopt_core(WorldMigration& migration) {
  SSBFT_EXPECTS(migration.nodes.size() == nodes_.size());
  // Stream and counter positions continue where the exporting engine
  // stopped: the suffix mints the exact keys and draws an uninterrupted
  // run would have. The Network reads its per-sender streams from nodes_,
  // so they continue too.
  network_.adopt_world_counters(migration.forged_seq, migration.stats);
  rng_ = migration.world_rng;
  nodes_ = std::move(migration.nodes);
  timers_ = std::move(migration.timers);
  for (NodeState& node : nodes_) node.rehost(*this);
  // A chaos delivery may land well inside a windowed engine's first
  // windows — that is fine: the conservative-window argument constrains
  // only traffic GENERATED during a window, and the post-cut network is
  // non-faulty (every new send respects λ).
  for (const Network::PendingDelivery& pending : migration.deliveries) {
    network_.adopt_delivery(pending);
  }
  // Behaviors carry their started flags over — adoption never re-runs
  // on_start (the cut is an engine-internal instant, not a deployment).
  started_ = true;
}

World::World(WorldConfig config) : EngineCore(config) {}

World::World(WorldConfig config, WorldMigration&& migration)
    : World(std::move(config)) {
  // Clock and counter positions first: the queue must be pristine.
  queue_.adopt(migration.now, migration.world_seq, migration.dispatched);
  adopt_core(migration);
  for (WorldMigration::PendingAction& a : migration.actions) {
    queue_.schedule(a.when, a.key, WorldAction{a.target, std::move(a.action)});
  }
}

World::~World() = default;

void World::pump_timers(RealTime bound) {
  timers_.advance(bound, due_batch_);
  for (const TimerWheel::Due& due : due_batch_) {
    World* world = this;
    queue_.schedule(due.when, due.key,
                    [world, handle = due.handle] { world->fire_timer(handle); });
  }
}

void World::dispatch_to(RealTime bound, bool inclusive) {
  SSBFT_EXPECTS(!exported_);
  const trace::Scope traced(config_.tracer, queue_.now_ptr());
  logger_.set_now(queue_.now());
  while (true) {
    // Batched hand-over (timer_pump_bound): due wheel timers move to the
    // heap just before the dispatch that could need them; the heap's
    // (when, creator, seq) order then dispatches exactly as the legacy
    // all-in-the-heap path would.
    const RealTime pump = timer_pump_bound(queue_, timers_, bound);
    if (pump != RealTime::max()) {
      pump_timers(pump);
      continue;
    }
    if (queue_.empty()) break;
    const RealTime next = queue_.next_time();
    if (inclusive ? next > bound : next >= bound) break;
    queue_.run_one();
    logger_.set_now(queue_.now());
  }
}

void World::run_until(RealTime t) {
  dispatch_to(t, /*inclusive=*/true);
  queue_.run_until(t);
}

void World::run_before(RealTime t) { dispatch_to(t, /*inclusive=*/false); }

void World::run_to_quiescence(RealTime hard_deadline) {
  dispatch_to(hard_deadline, /*inclusive=*/true);
}

WorldMigration World::export_migration() {
  WorldMigration m = export_core(queue_.global_seq());
  m.read_pending(queue_);
  return m;
}

QueueGauges World::queue_gauges() const {
  QueueGauges gauges;
  gauges.add(queue_);
  return gauges;
}

void World::collect_stats(StatsRegistry& reg) const {
  queue_gauges().report(reg);
}

void World::schedule(RealTime when, NodeId target,
                     std::function<void()> action) {
  SSBFT_EXPECTS(target < config_.n);
  // World-level creator key; the named type lets an export read it back.
  queue().schedule(when, WorldAction{target, std::move(action)});
}

TimerHandle World::arm_timer(NodeState& node, LocalTime when,
                             std::uint64_t cookie) {
  const auto [fire, key] = node.next_timer(when, now());
  if (config_.timer_wheel) {
    // Wheel path: the record waits in O(1) slots; pump_timers hands it
    // to the heap just before the engine reaches its window.
    return timers_.schedule(fire, key, node.id(), cookie);
  }
  // Legacy path: park the fire event in the heap now. The record exists
  // to give cancel_timer the same suppress-at-claim semantics — and to
  // carry (when, key) across an engine migration, where the fire event
  // dies with this queue and the recalled record re-materializes it.
  const TimerHandle handle =
      timers_.arm_external(fire, key, node.id(), cookie);
  queue_.schedule(fire, key, [this, handle] { fire_timer(handle); });
  return handle;
}

}  // namespace ssbft
