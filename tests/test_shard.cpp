// ShardWorld: the windowed engine must be indistinguishable from the serial
// World — bit-identical observable histories (run_digest),
// event/message counts, metrics, and latencies — for every StackKind and
// every shard count, on any scenario with a positive delay floor. The
// determinism rests on three shared mechanisms (per-entity RNG streams,
// content-based event keys, canonical per-node digests); this file pins all
// three plus the engine-selection degradations.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adversary/adversaries.hpp"
#include "harness/metrics.hpp"
#include "harness/sweep.hpp"
#include "sim/fault_injector.hpp"
#include "sim/duty_world.hpp"
#include "sim/shard_world.hpp"

namespace ssbft {
namespace {

/// Stack-shaped small scenario with a positive-minimum link delay: the
/// exponential tail of the World default, floored at δ/10 — a 100 µs
/// lookahead for the shard engine. Workload shaping mirrors test_sweep.
Scenario shard_scenario(StackKind stack, std::uint32_t shards) {
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
  const Params params = sc.make_params();
  switch (stack) {
    case StackKind::kAgree:
      sc.with_proposal(milliseconds(2), 0, 42);
      sc.with_proposal(milliseconds(40), 1, 43);
      sc.run_for = milliseconds(150);
      break;
    case StackKind::kBaselineTps:
      sc.with_proposal(milliseconds(1), 0, 7);
      sc.run_for = milliseconds(120);
      break;
    case StackKind::kReplicatedLog:
    case StackKind::kPipelinedLog:
      for (std::uint32_t c = 0; c < 3; ++c) {
        sc.with_proposal(Duration::zero(), NodeId(c), 100 + c);
      }
      sc.run_for = 6 * (params.delta_0() + params.delta_agr() + 10 * params.d());
      break;
    case StackKind::kPulse:
    case StackKind::kClockSync:
      // Self-clocking: long enough to stabilize and fire several pulses.
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

/// One chaos-free cell on the windowed engine at any shard count, reduced
/// the way SweepRunner::run_cell reduces. Plain cells would run the serial
/// World at one shard; the Cluster's kWindowed engine runs ShardWorld there.
SweepRun run_windowed(Scenario sc, std::uint64_t seed) {
  sc.seed = seed;
  Cluster cluster(sc, Cluster::Engine::kWindowed);
  EXPECT_NE(dynamic_cast<ShardWorld*>(&cluster.world()), nullptr);
  cluster.run();
  StackOutcome outcome = evaluate_stack(cluster);
  SweepRun run;
  run.pass = outcome.pass;
  run.digest = outcome.digest;
  run.agreement = outcome.agreement;
  run.latency_ns = std::move(outcome.latency_ns);
  run.events = cluster.world().dispatched();
  run.messages = cluster.world().net_stats().sent;
  return run;
}

// The acceptance matrix: all six StackKinds × shards ∈ {1, 2, 4}, each
// windowed run bit-identical to its serial twin on the same Scenario +
// seed. Shards = 1 is the windowed engine on the caller's thread alone.
TEST(ShardDeterminism, EveryStackMatchesSerialAtEveryShardCount) {
  for (std::uint32_t k = 0; k < kStackKindCount; ++k) {
    const Scenario serial_sc = shard_scenario(StackKind(k), 0);
    const SweepRun serial = SweepRunner::run_cell(serial_sc, 21);
    for (std::uint32_t shards : {1u, 2u, 4u}) {
      const SweepRun run =
          run_windowed(shard_scenario(StackKind(k), shards), 21);
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
    }
  }
}

// A transient scramble (state + clocks + forged in-flight messages) is a
// serial phase on both engines and must not break parity.
TEST(ShardDeterminism, TransientScrambleMatchesSerial) {
  Scenario sc = shard_scenario(StackKind::kAgree, 0);
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 16;
  const SweepRun serial = SweepRunner::run_cell(sc, 5);
  for (std::uint32_t shards : {1u, 4u}) {
    sc.shards = shards;
    const SweepRun run = run_windowed(sc, 5);
    EXPECT_EQ(run.digest, serial.digest) << "shards " << shards;
    EXPECT_EQ(run.events, serial.events) << "shards " << shards;
    EXPECT_EQ(run.messages, serial.messages) << "shards " << shards;
  }
}

// Piecewise runs (start + repeated run_for) cross serial phases and window
// phases repeatedly; the cut points must not be observable.
TEST(ShardDeterminism, PiecewiseRunsMatchOneShot) {
  Scenario sc = shard_scenario(StackKind::kAgree, 4);
  sc.seed = 9;
  const SweepRun one_shot = SweepRunner::run_cell(sc, 9);

  Cluster cluster(sc);
  ASSERT_TRUE(cluster.sharded());
  cluster.start();
  for (int step = 0; step < 10; ++step) {
    cluster.world().run_for(sc.run_for / 10);
  }
  const StackOutcome outcome = evaluate_stack(cluster);
  EXPECT_EQ(outcome.digest, one_shot.digest);
  EXPECT_EQ(cluster.world().dispatched(), one_shot.events);
}

// SweepRunner cells may themselves be sharded: a sweep over sharded cells
// reduces to the same digests as the serial cells.
TEST(ShardDeterminism, ShardedSweepCellsMatchSerialCells) {
  SweepSpec spec;
  spec.scenarios = {shard_scenario(StackKind::kAgree, 2),
                    shard_scenario(StackKind::kReplicatedLog, 2)};
  spec.seeds_per_scenario = 2;
  spec.seed0 = 31;
  spec.threads = 2;
  const SweepReport report = SweepRunner(spec).run();
  ASSERT_EQ(report.runs.size(), 4u);
  for (const SweepRun& run : report.runs) {
    Scenario serial_sc = spec.scenarios[run.scenario_index];
    serial_sc.shards = 0;
    const SweepRun serial =
        SweepRunner::run_cell(serial_sc, run.seed, run.scenario_index);
    EXPECT_EQ(run.digest, serial.digest)
        << to_string(run.stack) << " seed " << run.seed;
  }
}

// --- chaos handoff: serial prefix → windowed suffix ------------------------
// A chaos window pins its OWN segment to the serial engine (unbounded chaos
// delays undercut any lookahead), but not the whole run: the DutyWorld
// migrates the complete in-flight state — chaos-delayed/duplicated
// deliveries, forged plants, armed timers at their original handle tickets,
// every RNG stream and key-channel counter — into the ShardWorld at the
// cut. These tests pin the one-shot [0, ι0) shape; test_duty extends them
// to recurring duty cycles. Acceptance criterion: chaos scenarios are
// bit-identical to all-serial for every StackKind × shard count.

/// shard_scenario plus a transient scramble and a 5 ms network-chaos
/// window — the paper's stabilization-measurement shape: arbitrary state,
/// arbitrary in-flight messages, chaotic network until ι0, then converge.
Scenario chaos_scenario(StackKind stack, std::uint32_t shards) {
  Scenario sc = shard_scenario(stack, shards);
  sc.chaos_period = milliseconds(5);
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 16;
  return sc;
}

// The acceptance matrix extended to chaos: all six StackKinds × shards
// ∈ {1, 2, 4} with chaos_period > 0, each two-phase run bit-identical to
// its all-serial twin. (One shard is the Cluster's serial World here: the
// alternating engine needs a sharded segment to alternate with.)
TEST(ShardChaosHandoff, EveryStackMatchesSerialAtEveryShardCount) {
  for (std::uint32_t k = 0; k < kStackKindCount; ++k) {
    const Scenario serial_sc = chaos_scenario(StackKind(k), 0);
    const SweepRun serial = SweepRunner::run_cell(serial_sc, 21);
    for (std::uint32_t shards : {1u, 2u, 4u}) {
      const SweepRun run =
          SweepRunner::run_cell(chaos_scenario(StackKind(k), shards), 21);
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
    }
  }
}

// Piecewise runs that cross the cut — including a step landing EXACTLY on
// the chaos end — must be indistinguishable from one shot: the migration
// instant is an engine-internal detail, not an observable.
TEST(ShardChaosHandoff, PiecewiseRunsCrossTheCutUnobserved) {
  Scenario sc = chaos_scenario(StackKind::kAgree, 4);
  sc.seed = 9;
  const SweepRun one_shot = SweepRunner::run_cell(sc, 9);

  Cluster cluster(sc);
  ASSERT_TRUE(cluster.sharded());
  cluster.start();
  // Step to just before, exactly onto, and past the cut, then drain.
  cluster.world().run_until(RealTime::zero() + sc.chaos_period -
                            microseconds(100));
  cluster.world().run_until(RealTime::zero() + sc.chaos_period);
  for (int step = 1; step <= 8; ++step) {
    cluster.world().run_until(RealTime::zero() + sc.chaos_period +
                              (sc.run_for - sc.chaos_period) * step / 8);
  }
  const StackOutcome outcome = evaluate_stack(cluster);
  EXPECT_EQ(outcome.digest, one_shot.digest);
  EXPECT_EQ(cluster.world().dispatched(), one_shot.events);
}

// Sharded FaultInjector parity: a SECOND transient fault injected after the
// handoff exercises inject_raw's forged-channel keys and the migrated
// world-RNG stream position on the suffix engine — serial and sharded must
// still agree bit-for-bit.
TEST(ShardChaosHandoff, PostHandoffFaultInjectionMatchesSerial) {
  const auto run_with_midrun_fault = [](std::uint32_t shards) {
    Scenario sc = chaos_scenario(StackKind::kAgree, shards);
    sc.seed = 33;
    Cluster cluster(sc);
    cluster.start();
    cluster.world().run_until(RealTime::zero() + sc.chaos_period +
                              milliseconds(20));
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

// A chaos run whose horizon ends INSIDE the window never migrates — and a
// later run_until past the cut migrates then. Both legs must match serial.
TEST(ShardChaosHandoff, HorizonInsideChaosStaysSerialUntilTheCut) {
  Scenario sc = chaos_scenario(StackKind::kAgree, 4);
  sc.seed = 5;
  Cluster cluster(sc);
  cluster.start();
  auto* duty = dynamic_cast<DutyWorld*>(&cluster.world());
  ASSERT_NE(duty, nullptr);
  cluster.world().run_until(RealTime::zero() + milliseconds(2));
  EXPECT_FALSE(duty->sharded_active());
  EXPECT_EQ(duty->migrations(), 0u);
  cluster.world().run_until(RealTime::zero() + sc.run_for);
  EXPECT_TRUE(duty->sharded_active());
  EXPECT_EQ(duty->migrations(), 1u);

  Scenario serial_sc = chaos_scenario(StackKind::kAgree, 0);
  serial_sc.seed = 5;
  const SweepRun serial = SweepRunner::run_cell(serial_sc, 5);
  EXPECT_EQ(evaluate_stack(cluster).digest, serial.digest);
  EXPECT_EQ(cluster.world().dispatched(), serial.events);
}

// set_behavior after start() is one engine-core method on every engine: a
// mid-run Byzantine turnover — two silent nodes turning into spamming
// Generals — must dispatch identically whether it lands in a windowed
// stretch or inside a chaos window (the alternating engine's serial
// segment).
TEST(ShardChaosHandoff, MidRunBehaviorSwapMatchesSerial) {
  struct Out {
    std::uint64_t digest, events, sent;
  };
  const auto run = [](std::uint32_t shards, bool chaos, bool swap) {
    Scenario sc;
    sc.stack = StackKind::kAgree;
    sc.n = 10;
    sc.f = 3;
    sc.with_tail_faults(3);
    sc.adversary = AdversaryKind::kSilent;
    sc.shards = shards;
    sc.link_delay =
        DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
    sc.with_proposal(milliseconds(2), 0, 42);
    sc.with_proposal(milliseconds(40), 1, 43);
    sc.run_for = milliseconds(150);
    sc.seed = 17;
    if (chaos) {
      sc.chaos_first_start = milliseconds(30);
      sc.chaos_period = milliseconds(10);
    }
    Cluster cluster(sc);
    WorldBase& world = cluster.world();
    auto* duty = dynamic_cast<DutyWorld*>(&world);
    if (shards > 1) {
      EXPECT_EQ(duty != nullptr, chaos);
      EXPECT_EQ(dynamic_cast<ShardWorld*>(&world) != nullptr, !chaos);
    }
    const auto turn = [&](NodeId id) {
      if (swap) {
        world.set_behavior(id, std::make_unique<SpamGeneral>(milliseconds(3)));
      }
    };
    cluster.start();
    world.run_until(RealTime::zero() + milliseconds(20));
    EXPECT_TRUE(duty == nullptr || duty->sharded_active());
    turn(7);  // a windowed stretch
    world.run_until(RealTime::zero() + milliseconds(35));
    EXPECT_TRUE(duty == nullptr || !duty->sharded_active());
    turn(8);  // inside the chaos window when chaos is on
    world.run_until(RealTime::zero() + sc.run_for);
    return Out{evaluate_stack(cluster).digest, world.dispatched(),
               world.net_stats().sent};
  };
  for (const bool chaos : {false, true}) {
    const Out serial = run(0, chaos, true);
    // Anti-vacuity: the swapped-in Generals put traffic on the wire.
    EXPECT_GT(serial.sent, run(0, chaos, false).sent) << "chaos " << chaos;
    for (std::uint32_t shards : {2u, 4u}) {
      const Out sharded = run(shards, chaos, true);
      EXPECT_EQ(sharded.digest, serial.digest)
          << "chaos " << chaos << " shards " << shards;
      EXPECT_EQ(sharded.events, serial.events)
          << "chaos " << chaos << " shards " << shards;
      EXPECT_EQ(sharded.sent, serial.sent)
          << "chaos " << chaos << " shards " << shards;
    }
  }
}

// --- engine selection / degradation ---------------------------------------

TEST(ShardEngineTest, NoLookaheadDegradesToSerial) {
  WorldConfig wc;
  wc.n = 8;
  wc.shards = 4;
  // Default delay models: exponential tail with min = 0 ⇒ λ = 0.
  EXPECT_EQ(ShardWorld::effective_shards(wc), 1u);

  Scenario sc = shard_scenario(StackKind::kAgree, 4);
  sc.link_delay.reset();  // back to the floor-less default
  Cluster cluster(sc);
  EXPECT_FALSE(cluster.sharded());
  EXPECT_EQ(cluster.shards(), 1u);
}

// Schedule-aware selection: chaos + lookahead ⇒ the alternating engine (it
// IS sharded — the stabilization segments run windowed); chaos WITHOUT a
// lookahead still degrades all the way to serial (no shardable segment).
TEST(ShardEngineTest, ChaosSelectsTwoPhaseEngineWhenLookaheadExists) {
  Scenario sc = shard_scenario(StackKind::kAgree, 4);
  sc.chaos_period = milliseconds(5);
  Cluster cluster(sc);
  EXPECT_TRUE(cluster.sharded());
  auto* duty = dynamic_cast<DutyWorld*>(&cluster.world());
  ASSERT_NE(duty, nullptr);
  EXPECT_EQ(duty->next_cut(), RealTime::zero() + sc.chaos_period);
  EXPECT_FALSE(duty->sharded_active());

  Scenario no_lookahead = sc;
  no_lookahead.link_delay.reset();  // floor-less default ⇒ λ = 0
  Cluster serial_cluster(no_lookahead);
  EXPECT_FALSE(serial_cluster.sharded());
  EXPECT_EQ(dynamic_cast<DutyWorld*>(&serial_cluster.world()), nullptr);
}

// n not divisible by the shard count: the block boundaries floor(s·n/S)
// are uneven, and every node must still route to the shard that owns it
// (regression: an inexact shard_of() inverse mismapped node 2 of n=10,S=4).
TEST(ShardDeterminism, UnevenPartitionMatchesSerial) {
  for (const std::uint32_t n : {7u, 10u}) {
    Scenario sc = shard_scenario(StackKind::kAgree, 0);
    sc.n = n;
    sc.f = (n - 1) / 3;
    sc.byz_nodes.clear();
    sc.with_tail_faults(sc.f);
    const SweepRun serial = SweepRunner::run_cell(sc, 13);
    for (std::uint32_t shards : {3u, 4u}) {
      sc.shards = shards;
      const SweepRun run = SweepRunner::run_cell(sc, 13);
      EXPECT_EQ(run.digest, serial.digest) << "n " << n << " shards " << shards;
      EXPECT_EQ(run.events, serial.events) << "n " << n << " shards " << shards;
    }
  }
}

TEST(ShardEngineTest, ShardCountClampsToN) {
  WorldConfig wc;
  wc.n = 3;
  wc.shards = 64;
  wc.link_delay = DelayModel::uniform(microseconds(100), milliseconds(1));
  wc.proc_delay = DelayModel::uniform(Duration::zero(), microseconds(50));
  wc.has_delay_models = true;
  EXPECT_EQ(ShardWorld::effective_shards(wc), 3u);

  Scenario sc = shard_scenario(StackKind::kAgree, 4096);
  Cluster cluster(sc);
  EXPECT_EQ(cluster.shards(), sc.n);
}

// A directly-constructed one-shard ShardWorld must behave exactly like the
// serial World — in particular now() must track the dispatching queue's
// clock, or self-rescheduling timers compute stale fire/send times. It runs
// the same window loop as the threaded engine, inline on the caller's
// thread: windows are counted, and with no peer there is nothing to steal.
TEST(ShardEngineTest, SingleShardDirectConstructionMatchesSerial) {
  class Ticker final : public NodeBehavior {
   public:
    void on_start(NodeContext& ctx) override {
      ctx.set_timer_after(milliseconds(1), 1);
    }
    void on_message(NodeContext&, const WireMessage&) override {}
    void on_timer(NodeContext& ctx, std::uint64_t) override {
      ctx.send_all(WireMessage{});
      ctx.set_timer_after(milliseconds(1), 1);
    }
  };

  WorldConfig wc;
  wc.n = 4;
  wc.shards = 1;
  wc.link_delay = DelayModel::uniform(microseconds(100), milliseconds(1));
  wc.proc_delay = DelayModel::uniform(Duration::zero(), microseconds(50));
  wc.has_delay_models = true;

  World serial(wc);
  ShardWorld sharded(wc);
  ASSERT_EQ(sharded.shard_count(), 1u);
  for (NodeId id = 0; id < wc.n; ++id) {
    serial.set_behavior(id, std::make_unique<Ticker>());
    sharded.set_behavior(id, std::make_unique<Ticker>());
  }
  serial.start();
  sharded.start();
  const RealTime horizon = RealTime::zero() + milliseconds(20);
  serial.run_until(horizon);
  sharded.run_until(horizon);

  EXPECT_EQ(sharded.now(), serial.now());
  EXPECT_EQ(sharded.dispatched(), serial.dispatched());
  EXPECT_EQ(sharded.net_stats(), serial.net_stats());
  for (NodeId id = 0; id < wc.n; ++id) {
    EXPECT_EQ(sharded.local_now(id), serial.local_now(id)) << "node " << id;
  }
  EXPECT_GT(sharded.sched_stats().windows, 0u);
  EXPECT_EQ(sharded.sched_stats().steals, 0u);
  EXPECT_EQ(sharded.sched_stats().stolen_events, 0u);
}

// --- work-stealing pins --------------------------------------------------

/// Self-clocking behavior whose work rate is its timer period — the knob
/// that makes one node arbitrarily heavier than the rest.
class SkewedTicker final : public NodeBehavior {
 public:
  explicit SkewedTicker(Duration period) : period_(period) {}
  void on_start(NodeContext& ctx) override {
    ctx.set_timer_after(period_, 1);
  }
  void on_message(NodeContext&, const WireMessage&) override {}
  void on_timer(NodeContext& ctx, std::uint64_t) override {
    ctx.send(NodeId((ctx.id() + 1) % ctx.n()), WireMessage{});
    ctx.set_timer_after(period_, 1);
  }

 private:
  Duration period_;
};

// A grossly skewed load (node 0 ticks 25× faster than the rest) on the
// equal-width partition: idle workers must steal from the hot shard, and —
// the whole point of the design — the answer must not move by a single
// event or nanosecond relative to the serial engine.
TEST(WorkStealingTest, SkewedLoadStealsAndKeepsParity) {
  WorldConfig wc;
  wc.n = 8;
  wc.shards = 4;
  wc.link_delay = DelayModel::uniform(microseconds(100), milliseconds(1));
  wc.proc_delay = DelayModel::uniform(Duration::zero(), microseconds(50));
  wc.has_delay_models = true;
  const auto build = [&wc](WorldBase& w) {
    for (NodeId id = 0; id < wc.n; ++id) {
      w.set_behavior(id, std::make_unique<SkewedTicker>(
                             id == 0 ? microseconds(200) : milliseconds(5)));
    }
  };
  const RealTime horizon = RealTime::zero() + milliseconds(50);

  World serial(wc);
  build(serial);
  serial.start();
  serial.run_until(horizon);

  ShardWorld sharded(wc);
  ASSERT_EQ(sharded.shard_count(), 4u);
  build(sharded);
  sharded.start();
  sharded.run_until(horizon);

  EXPECT_EQ(sharded.now(), serial.now());
  EXPECT_EQ(sharded.dispatched(), serial.dispatched());
  EXPECT_EQ(sharded.net_stats(), serial.net_stats());
  for (NodeId id = 0; id < wc.n; ++id) {
    EXPECT_EQ(sharded.local_now(id), serial.local_now(id)) << "node " << id;
  }

  const WindowStats& st = sharded.sched_stats();
  EXPECT_GT(st.windows, 0u);
  EXPECT_LE(st.measured_windows, st.windows);
  EXPECT_GE(st.imbalance_max, 1.0);
  // An idle worker next to a 25×-hot shard must have stolen something.
  EXPECT_GT(st.steals, 0u);
  EXPECT_GT(st.stolen_events, 0u);
  EXPECT_LE(st.stolen_events, sharded.dispatched());
}

// Steal-aware cost attribution: work stealing EQUALIZES the executor view
// of a skewed load — thieves run the hot nodes, so per-worker dispatch
// counts look balanced even when one shard owns all the work. The owner
// view attributes each event to the OWNING shard (whose nodes generated
// it), so a steal-heavy run must still report the ownership imbalance.
// Both hot nodes sit on shard 0's block, so steals can spread the
// execution almost perfectly — exactly the case the executor view hides.
TEST(WorkStealingTest, StealingDoesNotMaskOwnerImbalance) {
  WorldConfig wc;
  wc.n = 8;
  wc.shards = 4;
  wc.link_delay = DelayModel::uniform(microseconds(100), milliseconds(1));
  wc.proc_delay = DelayModel::uniform(Duration::zero(), microseconds(50));
  wc.has_delay_models = true;
  const auto build = [&wc](WorldBase& w) {
    for (NodeId id = 0; id < wc.n; ++id) {
      // Nodes 0 and 1 — shard 0's whole initial block — carry ~25× the
      // load of everyone else.
      w.set_behavior(id, std::make_unique<SkewedTicker>(
                             id < 2 ? microseconds(200) : milliseconds(5)));
    }
  };
  const RealTime horizon = RealTime::zero() + milliseconds(50);

  World serial(wc);
  build(serial);
  serial.start();
  serial.run_until(horizon);

  ShardWorld sharded(wc);
  build(sharded);
  sharded.start();
  sharded.run_until(horizon);

  // Attribution changes accounting only — the physics stay bit-identical.
  EXPECT_EQ(sharded.now(), serial.now());
  EXPECT_EQ(sharded.dispatched(), serial.dispatched());
  EXPECT_EQ(sharded.net_stats(), serial.net_stats());
  for (NodeId id = 0; id < wc.n; ++id) {
    EXPECT_EQ(sharded.local_now(id), serial.local_now(id)) << "node " << id;
  }

  const WindowStats& st = sharded.sched_stats();
  // Stealing happened at scale...
  EXPECT_GT(st.steals, 0u);
  EXPECT_GT(st.stolen_events, 0u);
  // ...yet the owner-attributed view still registered the skew (shard 0
  // owns ~25× the per-window events of an idle shard).
  EXPECT_GE(st.owner_imbalance_max, 2.0);
  EXPECT_GT(st.owner_imbalance_mean(), 1.0);
}

// --- per-entity stream regression pins -------------------------------------
// First draw of each canonical (seed, domain, node) stream. If any of these
// move, every seeded experiment in the repository silently re-randomizes —
// that must be a deliberate, reviewed change.

TEST(RngStreamTest, DerivationPins) {
  const struct {
    RngDomain domain;
    std::uint64_t seed;
    std::uint64_t node;
    std::uint64_t first_draw;
  } pins[] = {
      {RngDomain::kNodeBehavior, 1, 0, 0x95e8c95cb1098984ULL},
      {RngDomain::kNodeBehavior, 1, 1, 0x561e38dedc5c8e14ULL},
      {RngDomain::kNodeBehavior, 1, 7, 0x5c0431e998612942ULL},
      {RngDomain::kNodeClock, 1, 0, 0xe94e8f870b27c98dULL},
      {RngDomain::kNodeClock, 1, 1, 0x993eb90a452746b8ULL},
      {RngDomain::kNodeClock, 1, 7, 0x93b5ea194aab1499ULL},
      {RngDomain::kLinkDelay, 1, 0, 0xb7f7fd4ce72aea1cULL},
      {RngDomain::kLinkDelay, 1, 1, 0x08772cc891ab2380ULL},
      {RngDomain::kLinkDelay, 1, 7, 0x474476d2e2418dd4ULL},
      {RngDomain::kLinkDelay, 42, 3, 0x843c7275daa39536ULL},
  };
  for (const auto& pin : pins) {
    Rng rng = rng_stream(pin.seed, pin.domain, pin.node);
    EXPECT_EQ(rng.next_u64(), pin.first_draw)
        << "domain " << std::uint64_t(pin.domain) << " seed " << pin.seed
        << " node " << pin.node;
  }
}

TEST(RngStreamTest, StreamsAreIndependentOfDrawOrder) {
  // Pure function of (seed, domain, index): re-deriving after arbitrary
  // draws elsewhere yields the same stream.
  Rng a = derive_node_rng(123, 4);
  Rng other = derive_node_rng(123, 5);
  for (int i = 0; i < 17; ++i) (void)other.next_u64();
  Rng b = derive_node_rng(123, 4);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace ssbft
