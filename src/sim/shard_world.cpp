#include "sim/shard_world.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>

#include "harness/stats_registry.hpp"
#include "harness/trace.hpp"
#include "util/assert.hpp"
#include "util/spin_barrier.hpp"

namespace ssbft {

thread_local EventQueue* ShardWorld::tl_current_queue_ = nullptr;
thread_local ShardWorld::ExecContext* ShardWorld::tl_exec_ = nullptr;

std::uint32_t ShardWorld::effective_shards(const WorldConfig& config) {
  WorldConfig resolved = config;
  resolved.resolve_delay_models();
  std::uint32_t shards = std::max(1u, resolved.shards);
  shards = std::min(shards, resolved.n);
  // λ = 0 means no conservative window can exist: degrade to one shard
  // (serial semantics), never to wrongness.
  if (resolved.lookahead() <= Duration::zero()) shards = 1;
  return shards;
}

ShardWorld::ShardWorld(WorldConfig config) : EngineCore(config) {
  lookahead_ = config_.lookahead();
  const std::uint32_t shards = effective_shards(config_);
  SSBFT_EXPECTS(shards == 1 || lookahead_ > Duration::zero());
  // Contiguous equal blocks [floor(s·n/S), floor((s+1)·n/S)), fixed for the
  // engine's lifetime.
  exec_.reserve(shards);
  shard_index_.assign(config_.n, 0);
  for (std::uint32_t s = 0; s < shards; ++s) {
    const NodeId first = NodeId(std::size_t(s) * config_.n / shards);
    const NodeId end = NodeId(std::size_t(s + 1) * config_.n / shards);
    SSBFT_EXPECTS(first < end);
    for (NodeId id = first; id < end; ++id) shard_index_[id] = s;
    exec_.push_back(
        std::make_unique<ExecContext>(config_.log_level, shards, first, end));
  }
  steal_cursor_ = std::vector<std::atomic<std::uint32_t>>(shards);
}

ShardWorld::ShardWorld(WorldConfig config, WorldMigration&& migration)
    : ShardWorld(std::move(config)) {
  global_now_ = migration.now;
  world_seq_ = migration.world_seq;
  base_dispatched_ = migration.dispatched;
  adopt_core(migration);
  for (WorldMigration::PendingAction& a : migration.actions) {
    place_action(a.when, a.key, a.target, std::move(a.action));
  }
}

ShardWorld::~ShardWorld() = default;

RealTime ShardWorld::now() const {
  // Inside a window "now" is the claimed node queue's clock.
  if (const EventQueue* q = tl_current_queue_) return q->now();
  return global_now_;
}

void ShardWorld::schedule(RealTime when, NodeId target,
                          std::function<void()> action) {
  SSBFT_EXPECTS(target < config_.n);
  SSBFT_EXPECTS(tl_exec_ == nullptr);  // serial phases only
  SSBFT_EXPECTS(!exported_);
  // World-level key: matches the serial queue's key-less counter
  // call-for-call.
  place_action(when, EventKey{kGlobalCreator, world_seq_++}, target,
               std::move(action));
}

void ShardWorld::place_action(RealTime when, EventKey key, NodeId target,
                              std::function<void()> action) {
  node_queue(target).schedule(when, key,
                              WorldAction{target, std::move(action)});
}

void ShardWorld::place_timer(const TimerWheel::Due& due) {
  node_queue(NodeId(due.key.creator))
      .schedule(due.when, due.key, [this, handle = due.handle] {
        fire_timer(handle, [this](auto&& op) { return on_wheel(op); });
      });
}

std::uint64_t ShardWorld::dispatched() const {
  std::uint64_t total = base_dispatched_;
  for (const auto& shard : exec_) {
    for (const EventQueue& q : shard->queues) total += q.dispatched();
  }
  return total - suppressed_timers_;
}

QueueGauges ShardWorld::queue_gauges() const {
  QueueGauges gauges;
  for (const auto& shard : exec_) {
    for (const EventQueue& q : shard->queues) gauges.add(q);
  }
  return gauges;
}

void ShardWorld::collect_stats(StatsRegistry& reg) const {
  queue_gauges().report(reg);
  add_sched_stats(reg, sched_stats_);
}

void ShardWorld::place_delivery(RealTime when, EventKey key, NodeId dest,
                                const WireMessage& msg, bool forged) {
  if (ExecContext* exec = tl_exec_) {
    // Inside a window even a same-shard destination may be executing on
    // another worker right now, so EVERY copy parks in the worker's private
    // outbox and merges at the barrier. The bounded-delay model is what
    // makes this safe — the delivery cannot precede the next window — and
    // the queue's key order makes the detour unobservable.
    SSBFT_ASSERT(when - now() >= lookahead_);
    exec->outbox[shard_index_[dest]].emplace_back(when, key, dest, forged,
                                                  msg);
    return;
  }
  // Serial phase (on_start, scramble, plants, adoption): no concurrency,
  // build the event straight in the destination's node queue.
  node_queue(dest).emplace<Network::Delivery>(when, key, &network_, dest,
                                              forged, msg);
}

NetworkStats* ShardWorld::window_stats() {
  if (ExecContext* exec = tl_exec_) return &exec->stats;
  return nullptr;
}

TimerHandle ShardWorld::arm_timer(NodeState& node, LocalTime when,
                                  std::uint64_t cookie) {
  const auto [fire, key] = node.next_timer(when, now());
  // Due wheel timers reach the node queues at plan time, so a fire INSIDE
  // the current window cannot wait for the next pump — park it straight in
  // the executing node's queue (timers are always self-node, and this
  // worker owns that queue for the whole window).
  const bool this_window = tl_exec_ != nullptr && within_window(fire);
  if (!this_window && config_.timer_wheel) {
    return on_wheel([&](TimerWheel& timers) {
      return timers.schedule(fire, key, node.id(), cookie);
    });
  }
  const TimerHandle handle = on_wheel([&](TimerWheel& timers) {
    return timers.arm_external(fire, key, node.id(), cookie);
  });
  place_timer({fire, key, handle});
  return handle;
}

bool ShardWorld::cancel_timer(TimerHandle handle) {
  return on_wheel([&](TimerWheel& timers) { return timers.cancel(handle); });
}

Logger& ShardWorld::node_log() {
  if (ExecContext* exec = tl_exec_) return exec->logger;
  return logger_;
}

Network& ShardWorld::network() {
  SSBFT_EXPECTS(!"network() is a serial-engine surface; taps and delay "
                 "oracles are not safe to call from shard workers");
  std::abort();
}

EventQueue& ShardWorld::queue() {
  SSBFT_EXPECTS(!"queue() is a serial-engine surface; use schedule()/"
                 "dispatched() on WorldBase");
  std::abort();
}

void ShardWorld::account_window() {
  // Owner-attributed view: a node's queue stays resident on its owning
  // shard even when a thief worker runs it, so each shard's queue-pop
  // delta counts the work its OWN nodes consumed this window regardless of
  // which worker executed it — the skew of the node blocks themselves.
  std::uint64_t owner_max = 0;
  std::uint64_t owner_min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t owner_total = 0;
  for (auto& shard : exec_) {
    std::uint64_t d = 0;
    for (const EventQueue& q : shard->queues) d += q.dispatched();
    const std::uint64_t e = d - shard->owner_dispatched;
    shard->owner_dispatched = d;
    owner_max = std::max(owner_max, e);
    owner_min = std::min(owner_min, e);
    owner_total += e;
  }
  // Executor view: stealing spreads one shard's nodes across many
  // workers, so per-WORKER dispatches measure what stealing achieved. Fold
  // the exec-context counters into the world totals while we are
  // single-threaded at the barrier.
  std::uint64_t max_e = 0;
  std::uint64_t min_e = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 0;
  for (auto& exec : exec_) {
    const std::uint64_t e = exec->window_events;
    exec->window_events = 0;
    network_.add_stats(exec->stats);
    exec->stats = NetworkStats{};
    sched_stats_.steals += exec->steals;
    sched_stats_.stolen_events += exec->stolen_events;
    exec->steals = 0;
    exec->stolen_events = 0;
    max_e = std::max(max_e, e);
    min_e = std::min(min_e, e);
    total += e;
  }
  ++sched_stats_.windows;
  if (total == 0 && owner_total == 0) {
    return;  // empty windows say nothing about balance
  }
  const double imbalance =
      double(max_e) / double(std::max<std::uint64_t>(min_e, 1));
  const double owner_imbalance =
      double(owner_max) / double(std::max<std::uint64_t>(owner_min, 1));
  ++sched_stats_.measured_windows;
  sched_stats_.window_events += std::max(total, owner_total);
  sched_stats_.imbalance_max = std::max(sched_stats_.imbalance_max, imbalance);
  sched_stats_.imbalance_sum += imbalance;
  sched_stats_.owner_imbalance_max =
      std::max(sched_stats_.owner_imbalance_max, owner_imbalance);
  sched_stats_.owner_imbalance_sum += owner_imbalance;
#if SSBFT_TRACING
  if (config_.tracer != nullptr) {
    // Retroactive window span: emitted once per accounted window, from the
    // single-threaded barrier-completion step. A keyed buffer (not the
    // thread buffer): completion runs on whichever worker arrives last, and
    // the merge order must not depend on that race.
    TraceBuffer* buf = config_.tracer->keyed_buffer(kLaneWindows);
    const std::int64_t events = std::int64_t(std::max(total, owner_total));
    buf->push(TraceRecord{window_start_.ns(), 0, events, kLaneWindows,
                          TraceName::kWindow, TraceKind::kSpanBegin,
                          TraceLayer::kEngine});
    buf->push(TraceRecord{window_end_.ns(), 0, events, kLaneWindows,
                          TraceName::kWindow, TraceKind::kSpanEnd,
                          TraceLayer::kEngine});
    buf->push(TraceRecord{window_end_.ns(), 0, events, kLaneWindows,
                          TraceName::kWindowEvents, TraceKind::kCounter,
                          TraceLayer::kEngine});
    buf->push(TraceRecord{window_end_.ns(), 0,
                          std::int64_t(owner_imbalance * 1000.0), kLaneWindows,
                          TraceName::kOwnerImbalance, TraceKind::kCounter,
                          TraceLayer::kEngine});
  }
#endif
}

void ShardWorld::plan_next_window() {
  if (in_window_) {
    account_window();
    in_window_ = false;
  }
  if (window_inclusive_) {
    // The inclusive pass at the target just ran: nothing at or before the
    // target can remain (cross-shard effects of the pass land strictly
    // after it).
    stop_ = true;
    return;
  }
  // Window start: where the last window ended, skipped ahead to the
  // earliest pending event (identical on every engine — pure queue state).
  RealTime start = window_end_;
  // Wheel timers are pending work too: a timer-only node must not be
  // fast-forwarded past (the bound is conservative — a stale-low wheel
  // lower bound only costs an extra empty window, never correctness).
  RealTime earliest = timers_.next_due();
  for (const auto& shard : exec_) {
    for (const EventQueue& q : shard->queues) {
      if (!q.empty()) earliest = std::min(earliest, q.next_time());
    }
  }
  if (quiescence_ && earliest > target_) {
    stop_ = true;  // nothing left at or before the deadline
    return;
  }
  if (cut_ && earliest >= target_) {
    stop_ = true;  // run_before: everything strictly before the cut is done
    return;
  }
  start = std::max(start, std::min(earliest, target_));
  if (start >= target_) {
    if (cut_) {
      // A stale-low wheel bound got us here with the exclusive windows
      // already run to the cut: nothing < target_ can remain.
      stop_ = true;
      return;
    }
    // Zero-width inclusive pass: events AT the target. Anything they cause
    // cross-shard lands at > target (λ > 0), so one pass suffices.
    window_end_ = target_;
    window_inclusive_ = true;
  } else {
    window_end_ = std::min(start + lookahead_, target_);
    window_inclusive_ = false;
  }
  window_start_ = start;
  in_window_ = true;
  // A timer landing AT an exclusive window edge enters its queue now and
  // waits there.
  pump_timers(window_end_);
  for (auto& shard : exec_) {
    shard->steal_items.clear();
    for (NodeId id = shard->first; id < shard->end; ++id) {
      const EventQueue& q = shard->queues[id - shard->first];
      if (!q.empty() && within_window(q.next_time())) {
        shard->steal_items.push_back(id);
      }
    }
  }
  for (auto& cursor : steal_cursor_) {
    cursor.store(0, std::memory_order_relaxed);
  }
}

void ShardWorld::pump_timers(RealTime bound) {
  timers_.advance(bound, due_batch_);
  for (const TimerWheel::Due& due : due_batch_) place_timer(due);
}

void ShardWorld::run_steal_window(std::uint32_t worker) {
  ExecContext* exec = exec_[worker].get();
  tl_exec_ = exec;
  const std::uint32_t shards = std::uint32_t(exec_.size());
  std::uint64_t events = 0;
  while (true) {
    // Own shard's items first (cache-warm, usually uncontended); once they
    // are gone, steal from whichever shard has the most left. The cursor
    // race is benign: an overshot fetch_add just retries the scan.
    std::uint32_t victim = shards;
    if (steal_cursor_[worker].load(std::memory_order_relaxed) <
        exec->steal_items.size()) {
      victim = worker;
    } else {
      std::size_t best_left = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        const std::size_t size = exec_[s]->steal_items.size();
        const std::uint32_t cur =
            steal_cursor_[s].load(std::memory_order_relaxed);
        const std::size_t left = cur < size ? size - cur : 0;
        if (left > best_left) {
          best_left = left;
          victim = s;
        }
      }
      if (victim == shards) break;  // every item everywhere is claimed
    }
    const ExecContext& owner = *exec_[victim];
    const std::uint32_t idx =
        steal_cursor_[victim].fetch_add(1, std::memory_order_relaxed);
    if (idx >= owner.steal_items.size()) continue;
    const NodeId node = owner.steal_items[idx];
    // Claiming a node claims its whole window batch: the node queue, its
    // in-window self-timers, everything — per-node key order preserved.
    EventQueue& queue = node_queue(node);
    const std::uint64_t before = queue.dispatched();
    tl_current_queue_ = &queue;
    {
      const trace::Scope traced(config_.tracer, queue.now_ptr());
      while (!queue.empty() && within_window(queue.next_time())) {
        queue.run_one();
        exec->logger.set_now(queue.now());
      }
    }
    tl_current_queue_ = nullptr;
    const std::uint64_t ran = queue.dispatched() - before;
    events += ran;
    if (victim != worker) {
      ++exec->steals;
      exec->stolen_events += ran;
#if SSBFT_TRACING
      if (config_.tracer != nullptr) {
        config_.tracer->emit(TraceRecord{
            window_start_.ns(), node, std::int64_t(ran),
            kLaneWorker0 + worker, TraceName::kSteal, TraceKind::kInstant,
            TraceLayer::kEngine});
      }
#endif
    }
  }
  exec->window_events += events;
  tl_exec_ = nullptr;
}

void ShardWorld::run_windows(RealTime target, bool quiescence) {
  target_ = target;
  quiescence_ = quiescence;
  stop_ = false;
  window_end_ = global_now_;
  window_inclusive_ = false;
  in_window_ = false;

  plan_next_window();  // single-threaded: workers not yet running
  if (!stop_) {
    // Per window: process → barrier (every outbox final) → drain own
    // inboxes → barrier, whose completion plans the next window.
    SpinBarrier barrier(std::uint32_t(exec_.size()));
    const auto worker = [&](std::uint32_t w) {
      while (true) {
        run_steal_window(w);
        barrier.arrive_and_wait();
        drain_inboxes(w);
        barrier.arrive_and_wait([this] { plan_next_window(); });
        if (stop_) return;
      }
    };
    // Workers are spawned per run_* call; the caller's thread drives worker
    // 0, so a one-shard world runs the same loop inline with no threads.
    std::vector<std::thread> pool;
    pool.reserve(exec_.size() - 1);
    for (std::uint32_t s = 1; s < std::uint32_t(exec_.size()); ++s) {
      pool.emplace_back(worker, s);
    }
    worker(0);
    for (auto& t : pool) t.join();
  }
  // No outbox can be non-empty here: every worker's last actions are
  // process → barrier → drain → barrier, so the final pass's deliveries
  // (all strictly after the target) are already parked in their
  // destination queues for the next run_* call.

  if (!quiescence && !cut_) {
    // Serial run_until semantics: every clock reads `target` afterwards.
    for (auto& shard : exec_) {
      for (EventQueue& q : shard->queues) q.run_until(target);
    }
    global_now_ = target;
  } else {
    // Quiescence and cut mode rest at the last dispatch: a migration cut
    // must not advance any clock to the cut instant (the adopting engine
    // owns it), and the exported `now` is then ≤ every pending `when`.
    RealTime last = global_now_;
    for (const auto& shard : exec_) {
      for (const EventQueue& q : shard->queues) last = std::max(last, q.now());
    }
    global_now_ = last;
  }
}

void ShardWorld::run_before(RealTime t) {
  SSBFT_EXPECTS(!exported_);
  if (t <= global_now_) return;
  cut_ = true;
  run_windows(t, /*quiescence=*/false);
  cut_ = false;
}

void ShardWorld::drain_inboxes(std::uint32_t shard) {
  // Key order makes the merge order unobservable; worker order keeps it
  // deterministic anyway. Each parked message moves once more: straight
  // into its Delivery slot.
  for (auto& exec : exec_) {
    for (Network::PendingDelivery& p : exec->outbox[shard]) {
      node_queue(p.dest).emplace<Network::Delivery>(
          p.when, p.key, &network_, p.dest, p.forged, std::move(p.msg));
    }
    exec->outbox[shard].clear();
  }
}

WorldMigration ShardWorld::export_migration() {
  WorldMigration m = export_core(world_seq_);
  for (const auto& shard : exec_) {
    for (const EventQueue& q : shard->queues) m.read_pending(q);
  }
  return m;
}

void ShardWorld::run_until(RealTime t) {
  SSBFT_EXPECTS(!exported_);
  if (t < global_now_) return;
  run_windows(t, /*quiescence=*/false);
}

void ShardWorld::run_to_quiescence(RealTime hard_deadline) {
  SSBFT_EXPECTS(!exported_);
  if (hard_deadline < global_now_) return;
  run_windows(hard_deadline, /*quiescence=*/true);
}

}  // namespace ssbft
