// The tracer's contract: observe everything, perturb nothing.
//
// The hard invariant is digest parity — a traced run must produce the
// bit-identical observable history (run_digest over every probe stream plus
// the wire counters) of its untraced twin, on every engine (serial,
// windowed, alternating), every scheduling policy, every stack. A tracer
// that draws from an RNG, schedules an event, or changes an allocation
// pattern in a way the physics can see would break this matrix instantly.
// On top of parity this file pins the mechanics: ring-buffer overwrite
// semantics, deterministic merge order, writer normalization (orphan ends
// dropped, open spans auto-closed, output sorted), golden-trace structure
// on a pinned seed, and the stats registry's self-describing document.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/runner.hpp"
#include "harness/stats_registry.hpp"
#include "harness/sweep.hpp"
#include "harness/trace.hpp"
#include "sim/duty_world.hpp"
#include "sim/shard_world.hpp"

namespace ssbft {
namespace {

// --- mechanics -------------------------------------------------------------

TraceRecord record_at(std::int64_t when_ns, TraceName name, TraceKind kind,
                      std::uint32_t lane = 0, std::uint64_t id = 0,
                      std::int64_t arg = 0) {
  return TraceRecord{when_ns, id, arg, lane, name, kind,
                     TraceLayer::kEngine};
}

TEST(TraceBufferTest, OverwritesOldestAndCountsDrops) {
  TraceBuffer buffer(4);
  for (std::int64_t i = 0; i < 6; ++i) {
    buffer.push(record_at(i, TraceName::kSteal, TraceKind::kInstant));
  }
  EXPECT_EQ(buffer.pushed(), 6u);
  EXPECT_EQ(buffer.dropped(), 2u);
  std::vector<TraceRecord> out;
  buffer.append_to(out);
  ASSERT_EQ(out.size(), 4u);
  // Oldest two (0, 1) were overwritten; survivors come out oldest-first.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].when_ns, std::int64_t(i) + 2);
  }
}

TEST(TracerTest, MergesKeyedBuffersBeforeThreadBuffersStably) {
  Tracer tracer(64);
  // Two records at the SAME timestamp from different buffers: the keyed
  // buffer (key order) must precede the thread buffer after the stable
  // sort, making the merged order engine-deterministic.
  tracer.keyed_buffer(1)->push(
      record_at(10, TraceName::kWindow, TraceKind::kSpanBegin, 1));
  tracer.keyed_buffer(0)->push(
      record_at(10, TraceName::kWindowEvents, TraceKind::kCounter, 0));
  tracer.emit(record_at(10, TraceName::kSteal, TraceKind::kInstant, 2));
  tracer.emit(record_at(5, TraceName::kRelay, TraceKind::kInstant, 2));

  const std::vector<TraceRecord> merged = tracer.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].name, TraceName::kRelay);         // earliest timestamp
  EXPECT_EQ(merged[1].name, TraceName::kWindowEvents);  // keyed, key 0
  EXPECT_EQ(merged[2].name, TraceName::kWindow);        // keyed, key 1
  EXPECT_EQ(merged[3].name, TraceName::kSteal);         // thread buffer last
  EXPECT_EQ(tracer.recorded(), 4u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, ThreadBuffersAreIndependentPerThread) {
  Tracer tracer(64);
  tracer.emit(record_at(1, TraceName::kSteal, TraceKind::kInstant));
  std::thread other([&] {
    tracer.emit(record_at(2, TraceName::kSteal, TraceKind::kInstant));
    tracer.emit(record_at(3, TraceName::kSteal, TraceKind::kInstant));
  });
  other.join();
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(tracer.merged().size(), 3u);
}

TEST(TraceScopeTest, UnarmedEmissionIsANoOpAndScopesRestore) {
#if !SSBFT_TRACING
  GTEST_SKIP() << "emission sites compiled out (SSBFT_TRACING=0)";
#endif
  // Emission with no armed scope must be safe (the untraced default).
  trace::instant(TraceLayer::kEngine, TraceName::kSteal, 0);

  Tracer tracer(64);
  const RealTime now = RealTime::zero() + milliseconds(1);
  {
    const trace::Scope outer(&tracer, &now);
    trace::instant(TraceLayer::kEngine, TraceName::kSteal, 0);
    {
      const trace::Scope inner(nullptr, nullptr);  // null tracer: no-op arm
      trace::instant(TraceLayer::kEngine, TraceName::kSteal, 0);
    }
    trace::instant(TraceLayer::kEngine, TraceName::kSteal, 0);
  }
  trace::instant(TraceLayer::kEngine, TraceName::kSteal, 0);  // disarmed
  EXPECT_EQ(tracer.recorded(), 3u);
  for (const TraceRecord& r : tracer.merged()) {
    EXPECT_EQ(r.when_ns, milliseconds(1).ns());
  }
}

TEST(TraceWriterTest, DropsOrphanEndsAndClosesOpenSpans) {
  std::vector<TraceRecord> records;
  // Orphan sync end (no begin), an open sync span, an open async span, and
  // records deliberately out of timestamp order.
  records.push_back(record_at(5, TraceName::kWindow, TraceKind::kSpanEnd, 0));
  records.push_back(
      record_at(20, TraceName::kWindow, TraceKind::kSpanBegin, 0));
  records.push_back(
      record_at(10, TraceName::kAgreeRound, TraceKind::kAsyncBegin, 1, 7));
  const std::string json = TraceWriter::to_json(std::move(records));

  // Perfetto shape with balanced spans: one B + one E (auto-closed), one
  // b + one e (auto-closed), and no unmatched end from the orphan.
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(count("\"ph\":\"B\""), 1u);
  EXPECT_EQ(count("\"ph\":\"E\""), 1u);
  EXPECT_EQ(count("\"ph\":\"b\""), 1u);
  EXPECT_EQ(count("\"ph\":\"e\""), 1u);
}

// --- digest parity: tracing on vs off --------------------------------------

/// A compact scenario exercising the full emission surface: Byzantine
/// noise, transient scramble, optionally a recurring chaos duty cycle
/// (⇒ the alternating engine when shards > 1). Horizons are deliberately
/// short — parity is about the history being identical, not complete.
Scenario trace_scenario(StackKind stack, std::uint32_t shards, bool chaos) {
  Scenario sc;
  sc.stack = stack;
  sc.n = 5;
  sc.f = 1;
  sc.with_tail_faults(1);
  sc.shards = shards;
  sc.link_delay =
      DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
  sc.adversary = stack == StackKind::kBaselineTps ? AdversaryKind::kSilent
                                                  : AdversaryKind::kNoise;
  sc.adversary_period = milliseconds(2);
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 8;
  if (chaos) {
    sc.chaos_period = milliseconds(2);
    sc.chaos_duty = milliseconds(20);
    sc.chaos_count = 2;
  }
  const Params params = sc.make_params();
  switch (stack) {
    case StackKind::kAgree:
      sc.with_proposal(milliseconds(3), 0, 42);
      sc.with_proposal(milliseconds(25), 1, 43);
      sc.run_for = milliseconds(60);
      break;
    case StackKind::kBaselineTps:
      sc.with_proposal(milliseconds(4), 0, 7);
      sc.run_for = milliseconds(50);
      break;
    case StackKind::kReplicatedLog:
    case StackKind::kPipelinedLog:
      sc.with_proposal(milliseconds(3), 0, 100);
      sc.with_proposal(milliseconds(3), 1, 101);
      sc.run_for =
          2 * (params.delta_0() + params.delta_agr() + 10 * params.d());
      break;
    case StackKind::kPulse:
    case StackKind::kClockSync:
      // A fraction of the stabilization bound: plenty of protocol traffic
      // to digest, no need to reach a complete pulse for parity.
      sc.run_for = params.delta_stb() / 3;
      break;
  }
  return sc;
}

std::uint64_t digest_of(const Scenario& sc, bool traced,
                        Cluster::Engine engine = Cluster::Engine::kAuto) {
  Scenario run = sc;
  run.trace = traced;
  Cluster cluster(run, engine);
  cluster.run();
  if (traced) {
    // The traced run must actually have traced something (anti-vacuity:
    // a disarmed tracer would pass parity trivially). With the emission
    // sites compiled out the tracer still exists but records nothing.
    EXPECT_NE(cluster.tracer(), nullptr);
#if SSBFT_TRACING
    EXPECT_GT(cluster.tracer()->recorded(), 0u)
        << to_string(sc.stack) << " shards " << sc.shards;
#endif
  } else {
    EXPECT_EQ(cluster.tracer(), nullptr);
  }
  return run_digest(cluster.probe(), cluster.world().net_stats());
}

// Engine sweep: every stack on the serial, windowed (one shard and
// threaded), and alternating engines — tracing on is bit-identical to
// tracing off.
TEST(TraceParityTest, EveryStackOnEveryEngine) {
  struct EngineCfg {
    std::uint32_t shards;
    bool chaos;
    Cluster::Engine engine;
    const char* label;
  };
  const EngineCfg engines[] = {
      {0, false, Cluster::Engine::kAuto, "serial"},
      {1, false, Cluster::Engine::kWindowed, "windowed1"},
      {4, false, Cluster::Engine::kAuto, "sharded4"},
      {2, true, Cluster::Engine::kAuto, "duty2"},
      {4, true, Cluster::Engine::kAuto, "duty4"},
  };
  for (std::uint32_t k = 0; k < kStackKindCount; ++k) {
    for (const EngineCfg& e : engines) {
      const Scenario sc = trace_scenario(StackKind(k), e.shards, e.chaos);
      const std::uint64_t off = digest_of(sc, false, e.engine);
      const std::uint64_t on = digest_of(sc, true, e.engine);
      EXPECT_EQ(on, off) << to_string(StackKind(k)) << " on " << e.label;
    }
  }
}

// Shard-count sweep: the agreement stack windowed and alternating at every
// shard count — more workers move records between trace buffers (stealing
// changes which thread emits), never the physics. One shard without chaos
// is the windowed engine on the caller's thread.
TEST(TraceParityTest, EveryShardCount) {
  for (const bool chaos : {false, true}) {
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      const Scenario sc = trace_scenario(StackKind::kAgree, shards, chaos);
      const Cluster::Engine engine = chaos ? Cluster::Engine::kAuto
                                           : Cluster::Engine::kWindowed;
      EXPECT_EQ(digest_of(sc, true, engine), digest_of(sc, false, engine))
          << (chaos ? "duty" : "sharded") << " shards " << shards;
    }
  }
}

// --- golden trace ----------------------------------------------------------

// Pinned-seed serial agreement run: the merged timeline must be sorted,
// span-balanced after normalization, and must contain the protocol records
// the run demonstrably produced — and an identical rerun must produce the
// bit-identical record sequence.
TEST(TraceGoldenTest, SerialAgreeTimelineIsStructuredAndReproducible) {
#if !SSBFT_TRACING
  GTEST_SKIP() << "emission sites compiled out (SSBFT_TRACING=0)";
#endif
  Scenario sc = trace_scenario(StackKind::kAgree, 0, false);
  sc.seed = 7;
  sc.trace = true;

  const auto run_traced = [&sc] {
    Cluster cluster(sc);
    cluster.run();
    struct Out {
      std::vector<TraceRecord> records;
      std::size_t decisions;
    };
    return Out{cluster.tracer()->merged(), cluster.probe().decisions().size()};
  };
  const auto first = run_traced();
  ASSERT_FALSE(first.records.empty());

  // Monotone timestamps after the merge.
  for (std::size_t i = 1; i < first.records.size(); ++i) {
    EXPECT_GE(first.records[i].when_ns, first.records[i - 1].when_ns)
        << "record " << i;
  }

  // The protocol layer mirrors the probe streams exactly: one kDecision
  // instant per recorded decision, one kInject per scheduled proposal.
  // Round spans need not balance in the RAW record stream — scramble-era
  // rounds can open without returning on this horizon; normalizing that is
  // the writer's job (pinned above) — but at least one complete round must
  // exist, and ends can never outnumber a round's begins by more than the
  // recovery returns a scrambled node emits before its first accept.
  std::map<TraceName, std::size_t> counts;
  for (const TraceRecord& r : first.records) ++counts[r.name];
  EXPECT_EQ(counts[TraceName::kDecision], first.decisions);
  EXPECT_EQ(counts[TraceName::kInject], 2u);
  EXPECT_GT(counts[TraceName::kAgreeRound], 0u);
  EXPECT_GT(counts[TraceName::kQuorumProgress], 0u);

  // Bit-identical rerun: same seed ⇒ same record sequence, field for field.
  const auto second = run_traced();
  ASSERT_EQ(second.records.size(), first.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    const TraceRecord& a = first.records[i];
    const TraceRecord& b = second.records[i];
    EXPECT_EQ(a.when_ns, b.when_ns) << "record " << i;
    EXPECT_EQ(a.name, b.name) << "record " << i;
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.lane, b.lane) << "record " << i;
    EXPECT_EQ(a.id, b.id) << "record " << i;
    EXPECT_EQ(a.arg, b.arg) << "record " << i;
  }
}

// A sharded traced run must emit the engine layer: window spans on the
// windows lane and per-window counters, and the writer's artifact must be
// well-formed Perfetto JSON (the ctest-side trace_check.py pins the same
// invariants against the CLI artifact).
TEST(TraceGoldenTest, ShardedRunEmitsEngineLayer) {
#if !SSBFT_TRACING
  GTEST_SKIP() << "emission sites compiled out (SSBFT_TRACING=0)";
#endif
  Scenario sc = trace_scenario(StackKind::kAgree, 4, false);
  sc.trace = true;
  Cluster cluster(sc);
  cluster.run();
  ASSERT_NE(cluster.tracer(), nullptr);

  std::size_t window_begins = 0, window_ends = 0, counters = 0;
  for (const TraceRecord& r : cluster.tracer()->merged()) {
    if (r.name == TraceName::kWindow) {
      EXPECT_EQ(r.lane, kLaneWindows);
      EXPECT_EQ(r.layer, TraceLayer::kEngine);
      window_begins += r.kind == TraceKind::kSpanBegin;
      window_ends += r.kind == TraceKind::kSpanEnd;
    }
    if (r.name == TraceName::kWindowEvents ||
        r.name == TraceName::kOwnerImbalance) {
      EXPECT_EQ(r.kind, TraceKind::kCounter);
      ++counters;
    }
  }
  EXPECT_GT(window_begins, 0u);
  EXPECT_EQ(window_begins, window_ends);
  EXPECT_GT(counters, 0u);

  const std::string json =
      TraceWriter::to_json(cluster.tracer()->merged(),
                           cluster.tracer()->dropped());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"window\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
}

// --- stats registry ---------------------------------------------------------

TEST(StatsRegistryTest, CollectsEngineNetworkSchedAndTracerStats) {
  Scenario sc = trace_scenario(StackKind::kAgree, 4, false);
  sc.trace = true;
  Cluster cluster(sc);
  cluster.run();

  const StatsRegistry stats = collect_run_stats(cluster);
  const auto value = [&](const char* path) {
    const StatsEntry* entry = stats.find(path);
    EXPECT_NE(entry, nullptr) << path;
    return entry == nullptr ? -1.0 : entry->value;
  };
  EXPECT_GT(value("run.dispatched"), 0.0);
  EXPECT_GT(value("net.sent"), 0.0);
  EXPECT_GT(value("sched.windows"), 0.0);
  EXPECT_GE(value("sched.owner_imbalance_max"), 0.0);
#if SSBFT_TRACING
  EXPECT_GT(value("trace.recorded"), 0.0);
#else
  EXPECT_GE(value("trace.recorded"), 0.0);  // sites compiled out ⇒ zero
#endif
  EXPECT_EQ(value("run.dispatched"), double(cluster.world().dispatched()));

  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"stats\""), std::string::npos);
  EXPECT_NE(json.find("\"sched.windows\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"help\""), std::string::npos);
}

TEST(StatsRegistryTest, ExportsPeakGaugesAndTopologyCounters) {
  Scenario sc = trace_scenario(StackKind::kAgree, 1, false);
  sc.payload_bytes = 256;  // above Payload::kInlineCapacity ⇒ pooled
  Cluster cluster(sc);
  cluster.run();
  const StatsRegistry stats = collect_run_stats(cluster);
  const auto value = [&](const char* path) {
    const StatsEntry* entry = stats.find(path);
    EXPECT_NE(entry, nullptr) << path;
    return entry == nullptr ? -1.0 : entry->value;
  };
  EXPECT_GT(value("queue.peak_bytes"), 0.0);
  EXPECT_GT(value("wheel.peak_records"), 0.0);
  EXPECT_GE(value("wheel.peak_records"), value("wheel.live"));
  // The pool is process-wide, so the peak is ≥ this run's pooled bodies.
  EXPECT_GT(value("net.pool_peak_bytes"), 0.0);
  // Flat topology: overlay counters exist and stay zero.
  EXPECT_EQ(value("net.topology_hops"), 0.0);
  EXPECT_EQ(value("net.fanout_msgs"), 0.0);

  // The wheel gauges exist on every engine: the windowed engine's one
  // wheel, and the alternating engine's (the one every cut moves along).
  for (const bool chaos : {false, true}) {
    Cluster sharded(trace_scenario(StackKind::kAgree, 2, chaos));
    sharded.run();
    WorldBase* engine = &sharded.world();
    EXPECT_TRUE(chaos ? dynamic_cast<DutyWorld*>(engine) != nullptr
                      : dynamic_cast<ShardWorld*>(engine) != nullptr)
        << "chaos " << chaos;
    const StatsRegistry engine_stats = collect_run_stats(sharded);
    const auto leaf = [&](const char* path) {
      const StatsEntry* entry = engine_stats.find(path);
      EXPECT_NE(entry, nullptr) << path << " chaos " << chaos;
      return entry == nullptr ? -1.0 : entry->value;
    };
    EXPECT_GE(leaf("wheel.armed"), 0.0);
    EXPECT_GE(leaf("wheel.overflow"), 0.0);
    EXPECT_GT(leaf("wheel.peak_records"), 0.0);
    EXPECT_GE(leaf("wheel.peak_records"), leaf("wheel.live"));
  }
}

// Every engine emits the same queue.*, wheel.* and net.* leaves, so one
// artifact reads the same whichever engine ran: the serial engine's one
// queue, the windowed engine's node queues summed, and the alternating
// engine's active queues.
TEST(StatsRegistryTest, EveryEngineEmitsTheSameQueueWheelAndNetLeaves) {
  struct Case {
    const char* label;
    std::uint32_t shards;
    bool chaos;
  };
  std::map<std::string, std::set<std::string>> leaves;
  for (const Case& c : {Case{"serial", 1, false}, Case{"windowed", 2, false},
                        Case{"alternating", 2, true}}) {
    Cluster cluster(trace_scenario(StackKind::kAgree, c.shards, c.chaos));
    cluster.run();
    WorldBase* engine = &cluster.world();
    if (c.chaos) {
      EXPECT_NE(dynamic_cast<DutyWorld*>(engine), nullptr) << c.label;
    } else if (c.shards > 1) {
      EXPECT_NE(dynamic_cast<ShardWorld*>(engine), nullptr) << c.label;
    } else {
      EXPECT_NE(dynamic_cast<World*>(engine), nullptr) << c.label;
    }
    const StatsRegistry stats = collect_run_stats(cluster);
    std::set<std::string>& names = leaves[c.label];
    for (const StatsEntry& entry : stats.entries()) {
      for (const char* prefix : {"queue.", "wheel.", "net."}) {
        if (entry.path.rfind(prefix, 0) == 0) names.insert(entry.path);
      }
    }
    const StatsEntry* peak = stats.find("queue.peak_bytes");
    ASSERT_NE(peak, nullptr) << c.label;
    EXPECT_GT(peak->value, 0.0) << c.label;
    const StatsEntry* slab = stats.find("queue.slab_capacity");
    ASSERT_NE(slab, nullptr) << c.label;
    EXPECT_GT(slab->value, 0.0) << c.label;
  }
  EXPECT_EQ(leaves["serial"].count("queue.depth"), 1u);
  EXPECT_EQ(leaves["serial"].count("wheel.peak_records"), 1u);
  EXPECT_EQ(leaves["serial"].count("net.sent"), 1u);
  EXPECT_EQ(leaves["windowed"], leaves["serial"]);
  EXPECT_EQ(leaves["alternating"], leaves["serial"]);
}

TEST(StatsRegistryTest, FindMissesReturnNull) {
  StatsRegistry stats;
  stats.add("a.b", 1.0, "count", "help");
  EXPECT_NE(stats.find("a.b"), nullptr);
  EXPECT_EQ(stats.find("a.c"), nullptr);
}

}  // namespace
}  // namespace ssbft
