// DutyWorld: recurring chaos duty cycles must be invisible to the physics.
// The alternating engine (serial chaos segments ↔ sharded stabilization
// segments, a FULL state migration at every boundary in BOTH directions)
// must produce bit-identical observable histories to an all-serial run —
// for every StackKind, every shard count, any number of cycles. This file
// pins that acceptance matrix, the cut mechanics (piecewise stepping that
// lands exactly on every boundary), fault injection after a reverse
// migration, the per-window stabilization metrics, the Scenario duty-cycle
// normalization/validation, the export-is-terminal guards on the sharded
// engine, timer handles that cross cuts in both directions, and a cached
// NodeContext that stays the node's one context across every cut.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/sweep.hpp"
#include "sim/duty_world.hpp"
#include "sim/fault_injector.hpp"
#include "sim/shard_world.hpp"

namespace ssbft {
namespace {

/// Stack-shaped scenario with a RECURRING chaos duty cycle: 3 ms bursts at
/// t = 0, 40, 80 ms (width 3, stride 40, count 3), scrambled initial state,
/// forged in-flight messages, and the δ/10 delay floor that gives the
/// stabilization segments their lookahead. Mirrors test_shard's
/// chaos_scenario but with the schedule the alternation exists for.
Scenario duty_scenario(StackKind stack, std::uint32_t shards) {
  Scenario sc;
  sc.stack = stack;
  sc.n = 8;
  sc.f = 2;
  sc.with_tail_faults(2);
  sc.shards = shards;
  sc.link_delay =
      DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
  sc.adversary = stack == StackKind::kBaselineTps ? AdversaryKind::kSilent
                                                  : AdversaryKind::kNoise;
  sc.adversary_period = milliseconds(2);
  sc.chaos_period = milliseconds(3);
  sc.chaos_duty = milliseconds(40);
  sc.chaos_count = 3;
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 16;
  const Params params = sc.make_params();
  switch (stack) {
    case StackKind::kAgree:
      // One proposal into each recovery span: after bursts 1, 2, and 3 —
      // every window's stabilization stretch has observable work to do.
      sc.with_proposal(milliseconds(5), 0, 42);
      sc.with_proposal(milliseconds(50), 1, 43);
      sc.with_proposal(milliseconds(90), 2, 44);
      sc.run_for = milliseconds(150);
      break;
    case StackKind::kBaselineTps:
      sc.with_proposal(milliseconds(4), 0, 7);
      sc.run_for = milliseconds(120);
      break;
    case StackKind::kReplicatedLog:
    case StackKind::kPipelinedLog:
      for (std::uint32_t c = 0; c < 3; ++c) {
        sc.with_proposal(milliseconds(4), NodeId(c), 100 + c);
      }
      sc.run_for = 6 * (params.delta_0() + params.delta_agr() + 10 * params.d());
      break;
    case StackKind::kPulse:
    case StackKind::kClockSync:
      sc.run_for =
          params.delta_stb() + 10 * 2 * (params.delta_0() + params.delta_agr());
      break;
  }
  return sc;
}

bool metrics_equal(const RunMetrics& a, const RunMetrics& b) {
  return a.executions == b.executions &&
         a.agreement_violations == b.agreement_violations &&
         a.validity_violations == b.validity_violations &&
         a.unanimous_decides == b.unanimous_decides &&
         a.max_decision_skew == b.max_decision_skew &&
         a.max_tau_g_skew == b.max_tau_g_skew;
}

// The acceptance matrix: all six StackKinds × shards ∈ {1, 2, 4}, each
// N-cycle alternating run bit-identical to its all-serial twin — run
// digest, event/message counts, verdicts, latencies, AND the per-window
// stabilization metrics.
TEST(DutyCycleParity, EveryStackMatchesAllSerialAtEveryShardCount) {
  for (std::uint32_t k = 0; k < kStackKindCount; ++k) {
    const Scenario serial_sc = duty_scenario(StackKind(k), 0);
    const SweepRun serial = SweepRunner::run_cell(serial_sc, 21);
    for (std::uint32_t shards : {1u, 2u, 4u}) {
      const SweepRun run =
          SweepRunner::run_cell(duty_scenario(StackKind(k), shards), 21);
      const auto label = [&] {
        return std::string(to_string(StackKind(k))) + " shards " +
               std::to_string(shards);
      };
      EXPECT_EQ(run.digest, serial.digest) << label();
      EXPECT_EQ(run.events, serial.events) << label();
      EXPECT_EQ(run.messages, serial.messages) << label();
      EXPECT_EQ(run.pass, serial.pass) << label();
      EXPECT_TRUE(metrics_equal(run.agreement, serial.agreement)) << label();
      EXPECT_EQ(run.latency_ns, serial.latency_ns) << label();
      ASSERT_EQ(run.windows.size(), serial.windows.size()) << label();
      for (std::size_t w = 0; w < run.windows.size(); ++w) {
        EXPECT_EQ(run.windows[w].digest, serial.windows[w].digest)
            << label() << " window " << w;
        EXPECT_EQ(run.windows[w].events, serial.windows[w].events)
            << label() << " window " << w;
        EXPECT_EQ(run.windows[w].recovery, serial.windows[w].recovery)
            << label() << " window " << w;
      }
    }
  }
}

// Every stabilization segment runs on the configured shard count — short
// segments included; nothing re-sizes them — and the run stays
// bit-identical to all-serial. Stepping onto each serial→sharded cut and
// just past it checks the live segment's engine directly.
TEST(DutyCycleParity, EverySegmentRunsOnTheConfiguredShardCount) {
  const SweepRun serial =
      SweepRunner::run_cell(duty_scenario(StackKind::kAgree, 0), 21);
  for (const std::uint32_t shards : {2u, 4u}) {
    Scenario sc = duty_scenario(StackKind::kAgree, shards);
    sc.seed = 21;  // the baseline cell's seed
    Cluster cluster(sc);
    ASSERT_TRUE(cluster.sharded());
    cluster.start();
    auto* duty = dynamic_cast<DutyWorld*>(&cluster.world());
    ASSERT_NE(duty, nullptr);
    // Serial→sharded cuts at 3, 43 and 83 ms open the three segments.
    for (const std::int64_t cut_ms : {3, 43, 83}) {
      cluster.world().run_until(RealTime::zero() + milliseconds(cut_ms) +
                                microseconds(100));
      ASSERT_TRUE(duty->sharded_active()) << "cut " << cut_ms;
      EXPECT_EQ(duty->sharded_engine()->shard_count(), shards)
          << "cut " << cut_ms;
    }
    cluster.world().run_until(RealTime::zero() + sc.run_for);
    EXPECT_EQ(duty->segments(), 3u) << "shards " << shards;
    EXPECT_EQ(evaluate_stack(cluster).digest, serial.digest)
        << "shards " << shards;
    EXPECT_EQ(cluster.world().dispatched(), serial.events)
        << "shards " << shards;
    // The summed scheduler stats cover every segment.
    const WindowStats stats = duty->sched_stats();
    EXPECT_GT(stats.windows, 0u) << "shards " << shards;
    EXPECT_LE(stats.measured_windows, stats.windows) << "shards " << shards;
    EXPECT_GT(duty->migration_ns(), 0u) << "shards " << shards;
  }
}

// Piecewise stepping that lands EXACTLY on every cut — serial→sharded at
// each window end, sharded→serial at each later window start — must be
// indistinguishable from one shot, and the schedule must advance exactly
// one migration per boundary.
TEST(DutyCycleParity, PiecewiseRunsLandOnEveryCutBothDirections) {
  Scenario sc = duty_scenario(StackKind::kAgree, 4);
  sc.seed = 9;
  const SweepRun one_shot = SweepRunner::run_cell(sc, 9);

  Cluster cluster(sc);
  ASSERT_TRUE(cluster.sharded());
  cluster.start();
  auto* duty = dynamic_cast<DutyWorld*>(&cluster.world());
  ASSERT_NE(duty, nullptr);
  // Window edges: 3 (→sharded), 40 (→serial), 43 (→sharded), 80, 83.
  const std::vector<RealTime> expected_cuts = {
      RealTime::zero() + milliseconds(3), RealTime::zero() + milliseconds(40),
      RealTime::zero() + milliseconds(43), RealTime::zero() + milliseconds(80),
      RealTime::zero() + milliseconds(83)};
  ASSERT_EQ(duty->cuts(), expected_cuts);

  std::size_t crossed = 0;
  for (const RealTime cut : expected_cuts) {
    // Just before, exactly onto (inclusive run_until crosses the cut), and
    // a hair past each boundary.
    cluster.world().run_until(cut - microseconds(100));
    EXPECT_EQ(duty->migrations(), crossed) << "before cut " << crossed;
    cluster.world().run_until(cut);
    ++crossed;
    EXPECT_EQ(duty->migrations(), crossed) << "on cut " << crossed;
    cluster.world().run_until(cut + microseconds(100));
    EXPECT_EQ(duty->migrations(), crossed) << "past cut " << crossed;
    // Engine identity flips serial↔sharded at every boundary; the schedule
    // starts serial (first window opens at t = 0).
    EXPECT_EQ(duty->sharded_active(), crossed % 2 == 1);
  }
  EXPECT_EQ(duty->next_cut(), RealTime::max());

  cluster.world().run_until(RealTime::zero() + sc.run_for);
  const StackOutcome outcome = evaluate_stack(cluster);
  EXPECT_EQ(outcome.digest, one_shot.digest);
  EXPECT_EQ(cluster.world().dispatched(), one_shot.events);
}

// FaultInjector rounds after a REVERSE migration (sharded→serial→sharded
// by t = 60 ms) exercise the forged-channel keys and world-RNG position
// carried through both migration directions — still parity-clean.
TEST(DutyCycleParity, PostReverseMigrationFaultInjectionMatchesSerial) {
  const auto run_with_midrun_fault = [](std::uint32_t shards) {
    Scenario sc = duty_scenario(StackKind::kAgree, shards);
    sc.seed = 33;
    Cluster cluster(sc);
    cluster.start();
    // 60 ms: past windows [0,3) and [40,43) — three migrations, including
    // one full sharded→serial reverse leg — inside a sharded segment.
    cluster.world().run_until(RealTime::zero() + milliseconds(60));
    TransientFaultConfig second;
    second.spurious_per_node = 8;
    second.scramble_clocks = false;  // keep it an in-flight-state fault
    FaultInjector injector(cluster.world());
    injector.transient_fault(second);
    cluster.world().run_until(RealTime::zero() + sc.run_for);
    struct Out {
      std::uint64_t digest, events, forged;
    };
    return Out{evaluate_stack(cluster).digest, cluster.world().dispatched(),
               cluster.world().net_stats().forged};
  };
  const auto serial = run_with_midrun_fault(0);
  for (std::uint32_t shards : {2u, 4u}) {
    const auto sharded = run_with_midrun_fault(shards);
    EXPECT_EQ(sharded.digest, serial.digest) << "shards " << shards;
    EXPECT_EQ(sharded.events, serial.events) << "shards " << shards;
    EXPECT_EQ(sharded.forged, serial.forged) << "shards " << shards;
  }
}

// The stabilization observability layer: every window of the schedule gets
// a span, spans carry the schedule's real boundaries, and a healthy run
// re-converges (produces primary-stream records) after every burst.
TEST(DutyCycleParity, WindowMetricsCoverEveryBurst) {
  Scenario sc = duty_scenario(StackKind::kAgree, 4);
  sc.seed = 2;  // a seed whose bursts all leave room to re-converge
  Cluster cluster(sc);
  cluster.run();
  const auto windows = window_stabilization(sc, cluster.probe());
  const auto schedule = sc.chaos_windows();
  ASSERT_EQ(windows.size(), schedule.size());
  ASSERT_EQ(windows.size(), 3u);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].chaos_start, schedule[w].start);
    EXPECT_EQ(windows[w].chaos_end, schedule[w].end);
    ASSERT_TRUE(windows[w].recovery.has_value()) << "window " << w;
    EXPECT_GE(*windows[w].recovery, Duration::zero());
    EXPECT_GT(windows[w].events, 0u);
    EXPECT_NE(windows[w].digest, 0u);
  }
  // The sweep reduction pools the same spans.
  const SweepRun cell = SweepRunner::run_cell(sc, sc.seed);
  ASSERT_EQ(cell.windows.size(), 3u);
}

// A window covering the whole horizon never migrates: the run stays serial
// end to end and matches the serial engine bit for bit (degrade, never
// wrongness).
TEST(DutyWorldTest, ChaosCoveringWholeHorizonStaysSerial) {
  Scenario sc = duty_scenario(StackKind::kAgree, 4);
  sc.chaos_period = milliseconds(200);  // > run_for = 150 ms
  sc.chaos_count = 1;
  sc.chaos_duty = Duration::zero();
  Scenario serial_sc = sc;
  serial_sc.shards = 0;
  const SweepRun serial = SweepRunner::run_cell(serial_sc, sc.seed);

  Cluster cluster(sc);
  cluster.start();
  auto* duty = dynamic_cast<DutyWorld*>(&cluster.world());
  ASSERT_NE(duty, nullptr);
  cluster.world().run_until(RealTime::zero() + sc.run_for);
  EXPECT_EQ(duty->migrations(), 0u);
  EXPECT_FALSE(duty->sharded_active());
  EXPECT_EQ(evaluate_stack(cluster).digest, serial.digest);
  EXPECT_EQ(cluster.world().dispatched(), serial.events);
}

// --- Scenario duty-cycle surface -------------------------------------------

TEST(ScenarioChaosTest, ValidateRejectsDegenerateCycles) {
  Scenario sc;
  EXPECT_EQ(sc.validate_chaos(), nullptr);  // default: no chaos, valid

  sc.chaos_period = milliseconds(-1);
  EXPECT_NE(sc.validate_chaos(), nullptr);
  sc.chaos_period = milliseconds(5);

  sc.chaos_first_start = milliseconds(-2);
  EXPECT_NE(sc.validate_chaos(), nullptr);
  sc.chaos_first_start = Duration::zero();

  sc.chaos_duty = milliseconds(-3);
  EXPECT_NE(sc.validate_chaos(), nullptr);

  // Overlapping recurrence: stride shorter than the window width.
  sc.chaos_duty = milliseconds(2);
  sc.chaos_count = 3;
  EXPECT_NE(sc.validate_chaos(), nullptr);
  // ...but the same stride is fine for a single window (nothing recurs),
  sc.chaos_count = 1;
  EXPECT_EQ(sc.validate_chaos(), nullptr);
  // and a stride equal to the width (back-to-back) is always sound.
  sc.chaos_count = 3;
  sc.chaos_duty = milliseconds(5);
  EXPECT_EQ(sc.validate_chaos(), nullptr);

  // A malformed schedule must never reach an engine.
  Scenario bad = duty_scenario(StackKind::kAgree, 2);
  bad.chaos_duty = milliseconds(1);  // < width 3 ms, count 3
  EXPECT_DEATH(Cluster cluster(bad), "precondition");
}

TEST(ScenarioChaosTest, WindowNormalization) {
  Scenario sc;
  sc.run_for = milliseconds(100);

  // No chaos: zero width or zero count ⇒ empty schedule.
  EXPECT_TRUE(sc.chaos_windows().empty());
  sc.chaos_period = milliseconds(5);
  sc.chaos_count = 0;
  EXPECT_TRUE(sc.chaos_windows().empty());

  // Unset stride ⇒ back-to-back bursts merge into ONE wider window — the
  // degenerate cycle degrades to the single-window shape, never to extra
  // no-op engine switches.
  sc.chaos_count = 3;
  sc.chaos_duty = Duration::zero();
  auto windows = sc.chaos_windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start, RealTime::zero());
  EXPECT_EQ(windows[0].end, RealTime::zero() + milliseconds(15));

  // Explicit stride equal to the width merges identically.
  sc.chaos_duty = milliseconds(5);
  windows = sc.chaos_windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].end, RealTime::zero() + milliseconds(15));

  // A proper duty cycle: disjoint windows at the stride, offset by
  // chaos_first_start.
  sc.chaos_first_start = milliseconds(10);
  sc.chaos_duty = milliseconds(30);
  windows = sc.chaos_windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start, RealTime::zero() + milliseconds(10));
  EXPECT_EQ(windows[0].end, RealTime::zero() + milliseconds(15));
  EXPECT_EQ(windows[2].start, RealTime::zero() + milliseconds(70));

  // Windows starting at or past the horizon are dropped — a burst the run
  // never reaches must not schedule dead engine switches.
  sc.chaos_count = 10;
  windows = sc.chaos_windows();
  ASSERT_EQ(windows.size(), 3u);  // starts 10, 40, 70 < 100 ≤ 100, 130, …
  EXPECT_EQ(windows.back().start, RealTime::zero() + milliseconds(70));
}

// --- export-is-terminal guards (sharded engine) ----------------------------
// The serial World's guards are pinned in test_sim; the ShardWorld ones
// live here with the rest of the reverse-migration machinery.

WorldConfig duty_world_config() {
  WorldConfig wc;
  wc.n = 4;
  wc.shards = 2;
  wc.seed = 3;
  wc.link_delay = DelayModel::uniform(microseconds(100), milliseconds(1));
  wc.proc_delay = DelayModel::uniform(Duration::zero(), microseconds(50));
  wc.has_delay_models = true;
  return wc;
}

std::unique_ptr<ShardWorld> exported_shard_world() {
  auto world = std::make_unique<ShardWorld>(duty_world_config());
  world->start();
  world->run_before(RealTime::zero() + milliseconds(2));
  (void)world->export_migration();
  return world;
}

TEST(ShardExportGuardTest, SecondExportAborts) {
  auto world = exported_shard_world();
  EXPECT_DEATH((void)world->export_migration(), "precondition");
}

TEST(ShardExportGuardTest, DispatchAfterExportAborts) {
  auto world = exported_shard_world();
  EXPECT_DEATH(world->run_until(RealTime::zero() + milliseconds(3)),
               "precondition");
}

TEST(ShardExportGuardTest, ScheduleAfterExportAborts) {
  auto world = exported_shard_world();
  EXPECT_DEATH(world->schedule(RealTime::zero() + milliseconds(3), 0, [] {}),
               "precondition");
}

TEST(ShardExportGuardTest, ExportedStateAdoptsCleanly) {
  // The happy path next to the guards: a forged plant and a workload action
  // pending past the cut are read out of the node queues (on two different
  // shards), and the snapshot round-trips into a serial World that keeps
  // running and fires the action exactly once.
  ShardWorld world(duty_world_config());
  world.start();
  int fired = 0;
  world.schedule(RealTime::zero() + milliseconds(4), 2, [&fired] { ++fired; });
  WireMessage msg;
  msg.sender = 3;
  world.inject_raw(1, msg, milliseconds(3));
  world.run_before(RealTime::zero() + milliseconds(2));
  WorldMigration m = world.export_migration();
  ASSERT_EQ(m.deliveries.size(), 1u);
  EXPECT_TRUE(m.deliveries[0].forged);
  EXPECT_EQ(m.deliveries[0].dest, 1u);
  EXPECT_EQ(m.deliveries[0].key.creator, kForgedCreator);
  ASSERT_EQ(m.actions.size(), 1u);
  EXPECT_EQ(m.actions[0].target, 2u);
  EXPECT_EQ(m.actions[0].when, RealTime::zero() + milliseconds(4));
  EXPECT_EQ(m.actions[0].key.creator, kGlobalCreator);

  World adopted(duty_world_config(), std::move(m));
  adopted.run_until(RealTime::zero() + milliseconds(5));
  EXPECT_GE(adopted.now(), RealTime::zero() + milliseconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(adopted.net_stats().forged, 1u);
}

// --- timer handles across cuts ----------------------------------------------

/// Arms timers shortly before each cut and logs every fire as (cookie,
/// local time). Per cut k, a prepare timer 1 ms ahead of the cut arms:
/// a doomed timer 1 ms past the cut (cancelled 0.5 ms past it, from a
/// handle minted on the other engine), a timer AT the cut (handed over to
/// the dying engine's queue at export), and a kept timer 2 ms past it.
class CutTimerProbe final : public NodeBehavior {
 public:
  enum : std::uint64_t {
    kPrepare = 100,
    kDoomed = 200,
    kAtCut = 300,
    kKept = 400,
    kCancel = 500
  };
  struct Fire {
    std::uint64_t cookie;
    LocalTime at;
    friend bool operator==(const Fire&, const Fire&) = default;
    friend void PrintTo(const Fire& f, std::ostream* os) {
      *os << "{cookie " << f.cookie << " at " << f.at.ns() << "}";
    }
  };

  explicit CutTimerProbe(std::vector<RealTime> cuts)
      : cuts_(std::move(cuts)), doomed_(cuts_.size()),
        cancelled_(cuts_.size(), false) {}

  void on_start(NodeContext& ctx) override {
    // Every clock runs at rate 1 (set by the test), so local time `origin_
    // + t` is real time t exactly.
    origin_ = ctx.local_now();
    for (std::size_t k = 0; k < cuts_.size(); ++k) {
      arm(ctx, cuts_[k] - milliseconds(1), kPrepare + k);
    }
  }
  void on_message(NodeContext&, const WireMessage&) override {}
  void on_timer(NodeContext& ctx, std::uint64_t cookie) override {
    fires_.push_back({cookie, ctx.local_now()});
    const std::size_t k = cookie % 100;
    if (cookie - k == kPrepare) {
      doomed_[k] = arm(ctx, cuts_[k] + milliseconds(1), kDoomed + k);
      arm(ctx, cuts_[k], kAtCut + k);
      arm(ctx, cuts_[k] + milliseconds(2), kKept + k);
      arm(ctx, cuts_[k] + microseconds(500), kCancel + k);
    } else if (cookie - k == kCancel) {
      cancelled_[k] = ctx.cancel_timer(doomed_[k]);
    }
  }

  [[nodiscard]] LocalTime local(RealTime t) const {
    return origin_ + (t - RealTime::zero());
  }
  [[nodiscard]] const std::vector<Fire>& fires() const { return fires_; }
  [[nodiscard]] bool cancelled(std::size_t k) const { return cancelled_[k]; }

 private:
  TimerHandle arm(NodeContext& ctx, RealTime t, std::uint64_t cookie) {
    return ctx.set_timer(local(t), cookie);
  }

  std::vector<RealTime> cuts_;
  LocalTime origin_{};
  std::vector<TimerHandle> doomed_;
  std::vector<bool> cancelled_;
  std::vector<Fire> fires_;
};

// Timer handles stay valid across every cut, in both directions: a handle
// minted on one engine cancels its timer on the other, a timer due exactly
// at the cut (already in the retiring engine's queue) fires exactly once
// on the adopting engine, and every fire instant matches an all-serial
// twin.
TEST(DutyWorldTest, TimerHandlesSurviveEveryCutBothDirections) {
  const std::vector<ChaosWindow> windows = {
      {RealTime::zero() + milliseconds(5), RealTime::zero() + milliseconds(10)},
      {RealTime::zero() + milliseconds(15),
       RealTime::zero() + milliseconds(20)}};
  const std::vector<RealTime> cuts = {
      windows[0].start, windows[0].end, windows[1].start, windows[1].end};
  const auto run = [&](WorldBase& world) {
    std::vector<CutTimerProbe*> probes;
    for (NodeId id = 0; id < world.n(); ++id) {
      world.clock(id).set_rate(1.0);
      auto probe = std::make_unique<CutTimerProbe>(cuts);
      probes.push_back(probe.get());
      world.set_behavior(id, std::move(probe));
    }
    world.start();
    world.run_until(RealTime::zero() + milliseconds(30));
    return probes;
  };

  WorldConfig serial_config = duty_world_config();
  serial_config.shards = 0;
  World serial(serial_config);
  const std::vector<CutTimerProbe*> expected = run(serial);

  DutyWorld duty(duty_world_config(), windows);  // 2 shards, λ = 100 µs
  ASSERT_TRUE(duty.sharded_active());
  const std::vector<CutTimerProbe*> probes = run(duty);
  EXPECT_EQ(duty.migrations(), cuts.size());
  EXPECT_TRUE(duty.sharded_active());

  for (NodeId id = 0; id < duty.n(); ++id) {
    const CutTimerProbe& probe = *probes[id];
    EXPECT_EQ(probe.fires(), expected[id]->fires()) << "node " << id;
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      const auto count = [&](std::uint64_t cookie) {
        return std::count_if(
            probe.fires().begin(), probe.fires().end(),
            [&](const CutTimerProbe::Fire& f) { return f.cookie == cookie; });
      };
      const auto label = [&] {
        return "node " + std::to_string(id) + " cut " + std::to_string(k);
      };
      EXPECT_TRUE(probe.cancelled(k)) << label();
      EXPECT_EQ(count(CutTimerProbe::kDoomed + k), 0) << label();
      EXPECT_EQ(count(CutTimerProbe::kAtCut + k), 1) << label();
      EXPECT_EQ(count(CutTimerProbe::kKept + k), 1) << label();
      const auto at_cut = std::find_if(
          probe.fires().begin(), probe.fires().end(),
          [&](const CutTimerProbe::Fire& f) {
            return f.cookie == CutTimerProbe::kAtCut + k;
          });
      ASSERT_NE(at_cut, probe.fires().end()) << label();
      EXPECT_EQ(at_cut->at, probe.local(cuts[k])) << label();
    }
  }
  EXPECT_EQ(duty.dispatched(), serial.dispatched());
}

// --- one context per node across cuts --------------------------------------

/// Caches the context it is handed at on_start and has no hook of its own
/// for engine changes. A 100 µs tick checks that every callback is handed
/// the cached context; a world action after each cut (act) then sends and
/// arms a timer through the cached pointer. Every callback is logged as
/// (what, detail, local time).
class CachedContextProbe final : public NodeBehavior {
 public:
  enum : std::uint64_t { kTick = 1, kActionTimer = 2, kMessage = 3 };
  struct Entry {
    std::uint64_t what;
    std::uint64_t detail;  // messages: sender * 1000 + value
    LocalTime at;
    friend bool operator==(const Entry&, const Entry&) = default;
    friend void PrintTo(const Entry& e, std::ostream* os) {
      *os << "{" << e.what << " " << e.detail << " at " << e.at.ns() << "}";
    }
  };

  void on_start(NodeContext& ctx) override {
    cached_ = &ctx;
    ctx.set_timer_after(microseconds(100), kTick);
  }
  void on_message(NodeContext& ctx, const WireMessage& msg) override {
    check(ctx);
    log_.push_back(
        {kMessage, std::uint64_t(msg.sender) * 1000 + msg.value,
         ctx.local_now()});
  }
  void on_timer(NodeContext& ctx, std::uint64_t cookie) override {
    check(ctx);
    log_.push_back({cookie, 0, ctx.local_now()});
    if (cookie == kTick) ctx.set_timer_after(microseconds(100), kTick);
  }

  /// Send and arm through the cached pointer. A pointer a callback has
  /// already contradicted is counted, not dereferenced: it may dangle.
  void act(Value value) {
    if (stale_) {
      ++stale_actions_;
      return;
    }
    WireMessage msg;
    msg.value = value;
    cached_->send_all(msg);
    cached_->set_timer_after(microseconds(300), kActionTimer);
  }

  [[nodiscard]] const std::vector<Entry>& log() const { return log_; }
  [[nodiscard]] std::size_t foreign_contexts() const { return foreign_; }
  [[nodiscard]] std::size_t stale_actions() const { return stale_actions_; }

 private:
  void check(NodeContext& ctx) {
    if (&ctx == cached_) return;
    ++foreign_;
    stale_ = true;
  }

  NodeContext* cached_ = nullptr;
  bool stale_ = false;
  std::size_t foreign_ = 0;
  std::size_t stale_actions_ = 0;
  std::vector<Entry> log_;
};

// A node's context is one object for the whole run: a behavior that caches
// it at on_start is handed that same address by every later callback, on
// whichever engine runs it, and can keep sending and arming timers through
// it after every cut. Four cuts, both directions, 2 shards, λ = 100 µs;
// each node's log must equal an all-serial twin's.
TEST(DutyWorldTest, CachedContextSurvivesEveryCut) {
  const std::vector<ChaosWindow> windows = {
      {RealTime::zero() + milliseconds(5), RealTime::zero() + milliseconds(10)},
      {RealTime::zero() + milliseconds(15),
       RealTime::zero() + milliseconds(20)}};
  const std::vector<RealTime> cuts = {
      windows[0].start, windows[0].end, windows[1].start, windows[1].end};
  const auto run = [&](WorldBase& world) {
    std::vector<CachedContextProbe*> probes;
    for (NodeId id = 0; id < world.n(); ++id) {
      auto probe = std::make_unique<CachedContextProbe>();
      probes.push_back(probe.get());
      world.set_behavior(id, std::move(probe));
      for (std::size_t k = 0; k < cuts.size(); ++k) {
        // A world action, as Cluster::inject schedules workload.
        CachedContextProbe* target = probes.back();
        world.schedule(cuts[k] + microseconds(500), id,
                       [target, k] { target->act(Value(k + 1)); });
      }
    }
    world.start();
    world.run_until(RealTime::zero() + milliseconds(30));
    return probes;
  };

  WorldConfig serial_config = duty_world_config();
  serial_config.shards = 0;
  World serial(serial_config);
  serial.network().set_faulty_windows(windows);
  const std::vector<CachedContextProbe*> expected = run(serial);

  DutyWorld duty(duty_world_config(), windows);  // 2 shards, λ = 100 µs
  ASSERT_TRUE(duty.sharded_active());
  const std::vector<CachedContextProbe*> probes = run(duty);
  EXPECT_EQ(duty.migrations(), cuts.size());

  for (NodeId id = 0; id < duty.n(); ++id) {
    const CachedContextProbe& probe = *probes[id];
    EXPECT_EQ(probe.foreign_contexts(), 0u) << "node " << id;
    EXPECT_EQ(probe.stale_actions(), 0u) << "node " << id;
    EXPECT_EQ(std::count_if(probe.log().begin(), probe.log().end(),
                            [](const CachedContextProbe::Entry& e) {
                              return e.what ==
                                     CachedContextProbe::kActionTimer;
                            }),
              std::ptrdiff_t(cuts.size()))
        << "node " << id;
    EXPECT_EQ(probe.log(), expected[id]->log()) << "node " << id;
  }
  EXPECT_EQ(duty.dispatched(), serial.dispatched());
}

}  // namespace
}  // namespace ssbft
