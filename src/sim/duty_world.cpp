#include "sim/duty_world.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "harness/stats_registry.hpp"
#include "harness/trace.hpp"
#include "util/assert.hpp"

namespace ssbft {

DutyWorld::DutyWorld(WorldConfig config,
                     std::vector<ChaosWindow> windows)
    : WorldBase(config), windows_(std::move(windows)) {
  SSBFT_EXPECTS(!windows_.empty());
  // The sharded segments must actually shard, or the wrapper is pointless —
  // the Cluster builds a plain serial World with the same window schedule
  // otherwise.
  SSBFT_EXPECTS(ShardWorld::effective_shards(config_) > 1);
  for (const ChaosWindow& w : windows_) {
    SSBFT_EXPECTS(w.start < w.end);
    // A window's start is a sharded→serial cut (skipped when the run opens
    // inside the window), its end a serial→sharded cut.
    if (w.start > RealTime::zero()) {
      SSBFT_EXPECTS(cuts_.empty() || w.start > cuts_.back());  // pre-merged
      cuts_.push_back(w.start);
    }
    cuts_.push_back(w.end);
  }
#if SSBFT_TRACING
  if (config_.tracer != nullptr) {
    // The whole chaos schedule is known up front; emit the window spans now
    // so the timeline shows them even if the run stops early. The writer
    // auto-closes / clips nothing here — both edges are real schedule times.
    TraceBuffer* buf = config_.tracer->keyed_buffer(kLaneDuty);
    for (const ChaosWindow& w : windows_) {
      buf->push(TraceRecord{w.start.ns(), 0, 0, kLaneDuty,
                            TraceName::kChaosWindow, TraceKind::kSpanBegin,
                            TraceLayer::kEngine});
      buf->push(TraceRecord{w.end.ns(), 0, 0, kLaneDuty,
                            TraceName::kChaosWindow, TraceKind::kSpanEnd,
                            TraceLayer::kEngine});
    }
  }
#endif
  if (windows_.front().start == RealTime::zero()) {
    serial_ = std::make_unique<World>(config_);
    serial_->network().set_faulty_windows(windows_);
  } else {
    sharded_ = std::make_unique<ShardWorld>(config_);
    ++segments_;
  }
}

DutyWorld::~DutyWorld() = default;

WorldBase& DutyWorld::active() {
  return sharded_ ? static_cast<WorldBase&>(*sharded_)
                  : static_cast<WorldBase&>(*serial_);
}

const WorldBase& DutyWorld::active() const {
  return sharded_ ? static_cast<const WorldBase&>(*sharded_)
                  : static_cast<const WorldBase&>(*serial_);
}

void DutyWorld::set_behavior(NodeId id,
                             std::unique_ptr<NodeBehavior> behavior) {
  active().set_behavior(id, std::move(behavior));
}

NodeBehavior* DutyWorld::behavior(NodeId id) { return active().behavior(id); }

void DutyWorld::start() { active().start(); }

void DutyWorld::migrate_to(RealTime cut) {
  ++migrations_;
  [[maybe_unused]] const bool to_sharded = serial_ != nullptr;
  // Drain the retiring segment first (that is dispatch work, not switch
  // overhead), then clock the export → adopt span.
  if (serial_) {
    // Every event strictly before the cut dispatches here (chaos sends all
    // originate inside the window, hence before the cut). What remains in
    // flight fires at or after it.
    serial_->run_before(cut);
  } else {
    sharded_->run_before(cut);
  }
  const auto wall_start = std::chrono::steady_clock::now();
  auto wall_export = wall_start;
  if (serial_) {
    WorldMigration m = serial_->export_migration();
    serial_.reset();
    wall_export = std::chrono::steady_clock::now();
    sharded_ = std::make_unique<ShardWorld>(config_, std::move(m));
    ++segments_;
  } else {
    // Reverse direction: read the node queues back into one snapshot,
    // adopt serially for the next window.
    sched_total_ += sharded_->sched_stats();
    WorldMigration m = sharded_->export_migration();
    sharded_.reset();
    wall_export = std::chrono::steady_clock::now();
    serial_ = std::make_unique<World>(config_, std::move(m));
    // Window membership is decided at SEND time against absolute real time,
    // so the full schedule transfers as-is; the cursor re-advances cheaply.
    serial_->network().set_faulty_windows(windows_);
  }
  const auto wall_end = std::chrono::steady_clock::now();
  const auto ns_between = [](auto from, auto to) {
    return std::int64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            to - from)
                            .count());
  };
  migration_ns_ += std::uint64_t(ns_between(wall_start, wall_end));
#if SSBFT_TRACING
  if (config_.tracer != nullptr) {
    // The migration is a simulation-time instant (everything lands at the
    // cut), so the spans are zero-width on the timeline; the wall-clock cost
    // of each half rides in the args instead.
    TraceBuffer* buf = config_.tracer->keyed_buffer(kLaneDuty);
    const TraceName name = to_sharded ? TraceName::kMigrateToSharded
                                      : TraceName::kMigrateToSerial;
    const std::int64_t cut_ns = cut.ns();
    buf->push(TraceRecord{cut_ns, 0, ns_between(wall_start, wall_end),
                          kLaneDuty, name, TraceKind::kSpanBegin,
                          TraceLayer::kEngine});
    buf->push(TraceRecord{cut_ns, 0, ns_between(wall_start, wall_export),
                          kLaneDuty, TraceName::kMigrateExport,
                          TraceKind::kSpanBegin, TraceLayer::kEngine});
    buf->push(TraceRecord{cut_ns, 0, 0, kLaneDuty, TraceName::kMigrateExport,
                          TraceKind::kSpanEnd, TraceLayer::kEngine});
    buf->push(TraceRecord{cut_ns, 0, ns_between(wall_export, wall_end),
                          kLaneDuty, TraceName::kMigrateAdopt,
                          TraceKind::kSpanBegin, TraceLayer::kEngine});
    buf->push(TraceRecord{cut_ns, 0, 0, kLaneDuty, TraceName::kMigrateAdopt,
                          TraceKind::kSpanEnd, TraceLayer::kEngine});
    buf->push(TraceRecord{cut_ns, 0, 0, kLaneDuty, name, TraceKind::kSpanEnd,
                          TraceLayer::kEngine});
  }
#endif
}

void DutyWorld::cross_cuts_until(RealTime t) {
  while (cursor_ < cuts_.size() && cuts_[cursor_] <= t) {
    migrate_to(cuts_[cursor_++]);
  }
}

void DutyWorld::run_until(RealTime t) {
  cross_cuts_until(t);
  active().run_until(t);
}

void DutyWorld::run_to_quiescence(RealTime hard_deadline) {
  cross_cuts_until(hard_deadline);
  active().run_to_quiescence(hard_deadline);
}

RealTime DutyWorld::now() const { return active().now(); }

LocalTime DutyWorld::local_now(NodeId id) const {
  return active().local_now(id);
}

RealTime DutyWorld::real_at(NodeId id, LocalTime tau) const {
  return active().real_at(id, tau);
}

DriftingClock& DutyWorld::clock(NodeId id) { return active().clock(id); }

Rng& DutyWorld::rng() { return active().rng(); }

Logger& DutyWorld::log() { return active().log(); }

void DutyWorld::scramble_node(NodeId id) { active().scramble_node(id); }

void DutyWorld::schedule(RealTime when, NodeId target,
                         std::function<void()> action) {
  active().schedule(when, target, std::move(action));
}

void DutyWorld::inject_raw(NodeId dest, WireMessage msg, Duration delay) {
  active().inject_raw(dest, msg, delay);
}

NetworkStats DutyWorld::net_stats() const { return active().net_stats(); }

std::uint64_t DutyWorld::dispatched() const { return active().dispatched(); }

const TimerWheel& DutyWorld::timers() const { return active().timers(); }

void DutyWorld::collect_stats(StatsRegistry& reg) const {
  (sharded_ ? sharded_->queue_gauges() : serial_->queue_gauges()).report(reg);
  reg.add("duty.migrations", double(migrations_), "count",
          "engine switches performed");
  reg.add("duty.migration_ns", double(migration_ns_), "ns",
          "wall time inside export/adopt (dispatch excluded)");
  reg.add("duty.segments", double(segments_), "count",
          "sharded stabilization segments");
  add_sched_stats(reg, sched_stats());
}

Network& DutyWorld::network() {
  SSBFT_EXPECTS(serial_ != nullptr);  // sharded segment: serial-only surface
  return serial_->network();
}

EventQueue& DutyWorld::queue() {
  SSBFT_EXPECTS(serial_ != nullptr);  // sharded segment: no single queue
  return serial_->queue();
}

}  // namespace ssbft
