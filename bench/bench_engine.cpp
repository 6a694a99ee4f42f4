// bench_engine — the simulation engine itself, before/after the slab
// refactor, plus the SweepRunner's multi-scenario throughput.
//
// Four measurements:
//  1. Raw dispatch: self-rescheduling event chains carrying a WireMessage-
//     sized closure (the network delivery shape) through (a) the seed's
//     std::function + copying std::priority_queue design, preserved here
//     verbatim as LegacyEventQueue, and (b) the slab-backed EventQueue.
//     The acceptance gate for the refactor is slab ≥ 2× legacy.
//  2. Timer saturation: dense periodic node timers (the protocol-timer
//     shape: round deadlines, watchdogs) at 64…8192 in-flight, through the
//     hierarchical timer wheel vs the legacy all-in-the-heap path. The
//     wheel's O(1) arm/cancel must beat the heap's O(log n) sift once the
//     in-flight population is dense (gate: wheel ≥ heap at ≥ 1024).
//  3. Scenario hot path: full (Scenario, seed) agreement runs through a
//     serial (threads=1) SweepRunner — events/sec and p50 latency.
//  4. Sweep scaling: the same grid on 1/2/4 worker threads — scenarios/sec
//     plus a digest check that every parallel run is bit-identical to its
//     serial twin.
//
// Results go to stdout (tables) and BENCH_engine.json (machine-readable,
// tracked in-repo so future PRs can diff the perf trajectory — and so the
// CI perf gate, tools/bench_check.py, has a committed baseline).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <thread>

#include "core/flat_map.hpp"
#include "core/node_set.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/report.hpp"
#include "harness/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/wire.hpp"
#include "sim/world.hpp"
#include "util/stats.hpp"

namespace ssbft {
namespace {

// ------------------------------------------------------------- legacy --
// The seed's event queue, kept verbatim so the before/after comparison is
// reproducible forever, not only against a historical commit.
class LegacyEventQueue {
 public:
  using Action = std::function<void()>;

  void schedule(RealTime when, Action action) {
    heap_.push(Entry{when, seq_++, std::move(action)});
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  void run_one() {
    auto& top = const_cast<Entry&>(heap_.top());
    now_ = top.when;
    Action action = std::move(top.action);
    heap_.pop();
    ++dispatched_;
    action();
  }
  [[nodiscard]] RealTime now() const { return now_; }

 private:
  struct Entry {
    RealTime when;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  RealTime now_{};
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

// ---------------------------------------------------------- raw chains --
// The hot-path event shape: a closure exactly the size of a network
// delivery (one pointer + destination + WireMessage, as Network::Delivery
// carries), rescheduling itself to keep the in-flight population constant.
template <class Queue>
struct ChainState {
  Queue queue;
  std::uint64_t fired = 0;
  std::uint64_t total = 0;
};

template <class Queue>
struct Chain {
  ChainState<Queue>* state;
  NodeId dest;
  WireMessage msg;
  void operator()() const {
    ++state->fired;
    if (state->fired < state->total) {
      state->queue.schedule(state->queue.now() + Duration{100}, *this);
    }
  }
};
static_assert(EventQueue::stores_inline<Chain<EventQueue>>);

template <class Queue>
double chain_events_per_sec(std::uint32_t in_flight, std::uint64_t total) {
  ChainState<Queue> state;
  state.total = total;
  for (std::uint32_t i = 0; i < in_flight; ++i) {
    state.queue.schedule(RealTime{std::int64_t(i)},
                         Chain<Queue>{&state, NodeId(i), WireMessage{}});
  }
  const auto t0 = std::chrono::steady_clock::now();
  while (!state.queue.empty() && state.fired < state.total) {
    state.queue.run_one();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return double(state.fired) / std::chrono::duration<double>(t1 - t0).count();
}

struct RawResult {
  std::uint32_t in_flight;
  double legacy_eps;
  double slab_eps;
  [[nodiscard]] double speedup() const { return slab_eps / legacy_eps; }
};

RawResult measure_raw(std::uint32_t in_flight, std::uint64_t total) {
  RawResult r{in_flight, 0, 0};
  // Interleave and keep the best of three passes each: both queues deserve
  // their warmest cache, and a single descheduling blip must not skew the
  // tracked ratio.
  for (int pass = 0; pass < 3; ++pass) {
    r.legacy_eps = std::max(
        r.legacy_eps, chain_events_per_sec<LegacyEventQueue>(in_flight, total));
    r.slab_eps =
        std::max(r.slab_eps, chain_events_per_sec<EventQueue>(in_flight, total));
  }
  return r;
}

// ----------------------------------------------------- timer saturation --
// The protocol-timer shape: every node keeps a dense population of periodic
// timers in flight (round deadlines, back-offs), each re-arming itself on
// fire — and, like every stack's arm_watchdog(), each fire also
// RESCHEDULES a per-node watchdog (cancel + re-arm). Cancellation is where
// the structures truly differ: the wheel unlinks in O(1), while the
// heap-resident path must park the dead timer until its fire time and pop
// it as a suppressed no-op — exactly what the pre-wheel generation-counter
// pattern paid. No network traffic — this isolates the timer path.
struct TimerStorm final : NodeBehavior {
  static constexpr std::uint64_t kWatchdogCookie = ~std::uint64_t{0};

  std::uint32_t per_node = 0;
  std::uint64_t* fired = nullptr;
  TimerHandle watchdog{};

  void on_start(NodeContext& ctx) override {
    for (std::uint32_t k = 0; k < per_node; ++k) arm(ctx, k);
    watchdog = ctx.set_timer_after(microseconds(600), kWatchdogCookie);
  }
  void arm(NodeContext& ctx, std::uint64_t cookie) {
    // Staggered short-horizon periods (50–500 µs) so fires stay dense but
    // never synchronize into one batch.
    const Duration period = microseconds(50 + std::int64_t(cookie * 7 % 450));
    (void)ctx.set_timer_after(period, cookie);
  }
  void on_message(NodeContext&, const WireMessage&) override {}
  void on_timer(NodeContext& ctx, std::uint64_t cookie) override {
    ++*fired;
    if (cookie == kWatchdogCookie) {  // quiet node: plain re-arm
      watchdog = ctx.set_timer_after(microseconds(600), kWatchdogCookie);
      return;
    }
    arm(ctx, cookie);
    watchdog = ctx.reschedule_timer(
        watchdog, ctx.local_now() + microseconds(600), kWatchdogCookie);
  }
};

double timer_events_per_sec(std::uint32_t in_flight, std::uint64_t total,
                            bool timer_wheel) {
  WorldConfig config;
  config.n = 8;  // fixed node count: only the timer population scales
  config.timer_wheel = timer_wheel;
  World world(config);
  std::uint64_t fired = 0;
  for (NodeId id = 0; id < config.n; ++id) {
    auto behavior = std::make_unique<TimerStorm>();
    behavior->per_node = in_flight / config.n;
    behavior->fired = &fired;
    world.set_behavior(id, std::move(behavior));
  }
  world.start();
  const auto t0 = std::chrono::steady_clock::now();
  while (fired < total) world.run_for(milliseconds(10));
  const auto t1 = std::chrono::steady_clock::now();
  return double(fired) / std::chrono::duration<double>(t1 - t0).count();
}

struct TimerResult {
  std::uint32_t in_flight;
  double heap_eps;
  double wheel_eps;
  [[nodiscard]] double speedup() const { return wheel_eps / heap_eps; }
};

TimerResult measure_timers(std::uint32_t in_flight, std::uint64_t total) {
  TimerResult r{in_flight, 0, 0};
  for (int pass = 0; pass < 3; ++pass) {  // interleaved best-of-three
    r.heap_eps =
        std::max(r.heap_eps, timer_events_per_sec(in_flight, total, false));
    r.wheel_eps =
        std::max(r.wheel_eps, timer_events_per_sec(in_flight, total, true));
  }
  return r;
}

// ---------------------------------------------------- quorum tracking --
// The flat-state refactor's hot shape: ss-Byz-Agree's per-round accept
// records. Every delivered (support/ready, round, sender) lands in a
// per-round distinct-sender set, then the quorum threshold is probed. The
// seed kept these as std::map<round, std::set<NodeId>> — preserved here
// verbatim (the LegacyEventQueue idiom) — the refactor moved them onto
// FlatMap<round, NodeSet> (sorted vector + inline/bitset membership).
// Workload: rounds advance in a sliding live window (old rounds erased,
// Fig. 2/3-style cleanup), senders arrive round-robin with a stride so
// insertion order is not presorted.
struct LegacyQuorumTracker {
  std::map<std::uint32_t, std::set<NodeId>> rounds;
  std::uint64_t note(std::uint32_t round, NodeId sender,
                     std::uint32_t quorum) {
    std::set<NodeId>& senders = rounds[round];
    senders.insert(sender);
    return senders.size() >= quorum ? 1 : 0;
  }
  void forget_before(std::uint32_t round) {
    for (auto it = rounds.begin(); it != rounds.end();) {
      if (it->first < round) {
        it = rounds.erase(it);
      } else {
        ++it;
      }
    }
  }
};

struct FlatQuorumTracker {
  FlatMap<std::uint32_t, NodeSet> rounds;
  std::uint64_t note(std::uint32_t round, NodeId sender,
                     std::uint32_t quorum) {
    NodeSet& senders = rounds[round];
    senders.insert(sender);
    return senders.size() >= quorum ? 1 : 0;
  }
  void forget_before(std::uint32_t round) {
    for (auto it = rounds.begin(); it != rounds.end();) {
      if (it->first < round) {
        it = rounds.erase(it);
      } else {
        ++it;
      }
    }
  }
};

template <class Tracker>
double quorum_updates_per_sec(std::uint32_t n, std::uint64_t total) {
  constexpr std::uint32_t kLiveRounds = 8;  // sliding cleanup window
  Tracker tracker;
  const std::uint32_t quorum = n - n / 3;
  std::uint64_t hits = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t base_round = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint32_t round = base_round + std::uint32_t(i % kLiveRounds);
    const NodeId sender = NodeId((i * 17) % n);  // not presorted
    hits += tracker.note(round, sender, quorum);
    if (i % (std::uint64_t(n) * kLiveRounds) == 0 && i > 0) {
      ++base_round;
      tracker.forget_before(base_round);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(hits);
  return double(total) / std::chrono::duration<double>(t1 - t0).count();
}

struct QuorumResult {
  std::uint32_t n;
  double map_ups = 0;
  double flat_ups = 0;
  [[nodiscard]] double speedup() const { return flat_ups / map_ups; }
};

QuorumResult measure_quorum(std::uint32_t n, std::uint64_t total) {
  QuorumResult r{n};
  for (int pass = 0; pass < 3; ++pass) {  // interleaved best-of-three
    r.map_ups = std::max(
        r.map_ups, quorum_updates_per_sec<LegacyQuorumTracker>(n, total));
    r.flat_ups = std::max(
        r.flat_ups, quorum_updates_per_sec<FlatQuorumTracker>(n, total));
  }
  return r;
}

// ------------------------------------------------------------- sweeps --

Scenario engine_scenario() {
  Scenario sc;
  sc.n = 7;
  sc.f = 2;
  sc.with_tail_faults(2);
  sc.adversary = AdversaryKind::kNoise;
  sc.with_proposal(milliseconds(5), 0, 7);
  sc.run_for = milliseconds(150);
  return sc;
}

struct SweepResult {
  double events_per_sec_serial = 0;
  double latency_p50_ms = 0;
  double scenarios_per_sec[3] = {0, 0, 0};  // threads 1, 2, 4
  bool deterministic = true;
};

SweepResult measure_sweeps(std::uint32_t seeds) {
  SweepResult result;
  const std::uint32_t thread_axis[3] = {1, 2, 4};
  std::vector<std::uint64_t> serial_digests;
  for (int t = 0; t < 3; ++t) {
    SweepSpec spec;
    spec.scenarios = {engine_scenario()};
    spec.seeds_per_scenario = seeds;
    spec.seed0 = 1;
    spec.threads = thread_axis[t];
    SweepReport report = SweepRunner(spec).run();
    result.scenarios_per_sec[t] = report.scenarios_per_sec;
    if (t == 0) {
      result.events_per_sec_serial = report.events_per_sec;
      if (!report.latency.empty()) {
        result.latency_p50_ms = report.latency.quantile(0.5) * 1e-6;
      }
      for (const auto& run : report.runs) serial_digests.push_back(run.digest);
    } else {
      for (std::size_t i = 0; i < report.runs.size(); ++i) {
        if (report.runs[i].digest != serial_digests[i]) {
          result.deterministic = false;
        }
      }
    }
  }
  return result;
}

// --------------------------------------------------- payload pipeline --

/// The zero-copy authenticated payload pipeline (sim/payload.hpp) at bench
/// scale: the scenario hot path with an N-byte command body on every
/// proposal and the keyed scheme (sim/auth.hpp) verifying every delivery.
/// Per size the JSON records throughput, the wire-admitted payload bytes vs
/// the bytes actually memcpy'd into the pool (admission counts per unicast
/// copy, the pool fills once per body — the gap IS the zero-copy win), and
/// a parity flag: a sharded twin must stay bit-identical with bodies and
/// tags on.
struct PayloadRow {
  std::uint32_t size;
  double eps = 0;
  std::uint64_t admitted = 0;  // net.payload_bytes (per unicast copy)
  std::uint64_t copied = 0;    // bytes memcpy'd into the pool (once per body)
  bool parity = true;          // sharded digest == serial digest at this size
};

PayloadRow measure_payload(std::uint32_t size) {
  PayloadRow row{size};
  for (int pass = 0; pass < 3; ++pass) {  // best-of-three, like the others
    Scenario sc = engine_scenario();
    sc.auth = AuthKind::kHmac;
    sc.payload_bytes = size;
    const std::uint64_t copied_before = payload_pool().bytes_copied();
    Cluster cluster(sc);
    const auto t0 = std::chrono::steady_clock::now();
    cluster.run();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    row.eps = std::max(row.eps, double(cluster.world().dispatched()) / secs);
    // Deterministic counts — identical on every pass.
    row.admitted = cluster.world().net_stats().payload_bytes;
    row.copied = payload_pool().bytes_copied() - copied_before;
  }
  // Parity twin: the same model point with a delay floor (the sharded
  // engine's lookahead), serial vs two shards.
  Scenario floor = engine_scenario();
  floor.auth = AuthKind::kHmac;
  floor.payload_bytes = size;
  floor.link_delay =
      DelayModel::exp_truncated(floor.delta / 10, floor.delta / 5, floor.delta);
  const SweepRun serial = SweepRunner::run_cell(floor, 1);
  floor.shards = 2;
  const SweepRun sharded = SweepRunner::run_cell(floor, 1);
  row.parity = serial.digest == sharded.digest;
  return row;
}

// -------------------------------------------------------- trace cost --

/// Events/sec of the scenario hot path with tracing compiled in but
/// disarmed (Scenario::trace = false, the shipping default) vs armed.
/// The disarmed figure is the perf-gated one: emission sites cost one
/// thread-local load and a branch, so it must track the untraced baseline
/// within noise (tools/bench_check.py fails a >5% dip on identical
/// hardware). The armed figure documents what full recording costs.
struct TraceOverheadResult {
  double off_eps = 0;
  double on_eps = 0;
};

TraceOverheadResult measure_trace_overhead() {
  const auto events_per_sec = [](bool traced) {
    double best = 0;
    for (int pass = 0; pass < 3; ++pass) {  // best-of-three, like the others
      Scenario sc = engine_scenario();
      sc.trace = traced;
      Cluster cluster(sc);
      const auto start = std::chrono::steady_clock::now();
      cluster.run();
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      best = std::max(best, double(cluster.world().dispatched()) / secs);
    }
    return best;
  };
  TraceOverheadResult r;
  r.off_eps = events_per_sec(false);
  r.on_eps = events_per_sec(true);
  return r;
}

void print_and_record() {
  std::printf("\nengine: raw dispatch — slab event core vs seed design "
              "(std::function heap in a copying priority_queue)\n");
  Table raw_table({"in-flight", "legacy Mev/s", "slab Mev/s", "speedup"});
  const RawResult raw_small = measure_raw(64, 2'000'000);
  const RawResult raw_large = measure_raw(4096, 2'000'000);
  for (const RawResult& r : {raw_small, raw_large}) {
    char legacy[32], slab[32], speedup[32];
    std::snprintf(legacy, sizeof legacy, "%.1f", r.legacy_eps / 1e6);
    std::snprintf(slab, sizeof slab, "%.1f", r.slab_eps / 1e6);
    std::snprintf(speedup, sizeof speedup, "%.2fx", r.speedup());
    raw_table.add_row({std::to_string(r.in_flight), legacy, slab, speedup});
  }
  raw_table.print();

  std::printf("\nengine: timer saturation — hierarchical wheel vs heap-"
              "resident timers (dense periodic, 8 nodes)\n");
  Table timer_table({"in-flight", "heap Mev/s", "wheel Mev/s", "speedup"});
  const TimerResult timer_rows[] = {
      measure_timers(64, 1'000'000),
      measure_timers(1024, 1'500'000),
      measure_timers(8192, 2'000'000),
  };
  for (const TimerResult& r : timer_rows) {
    char heap[32], wheel[32], speedup[32];
    std::snprintf(heap, sizeof heap, "%.1f", r.heap_eps / 1e6);
    std::snprintf(wheel, sizeof wheel, "%.1f", r.wheel_eps / 1e6);
    std::snprintf(speedup, sizeof speedup, "%.2fx", r.speedup());
    timer_table.add_row({std::to_string(r.in_flight), heap, wheel, speedup});
  }
  timer_table.print();

  std::printf("\nengine: quorum tracking — flat accept records "
              "(FlatMap+NodeSet) vs seed design (map<round, set<NodeId>>)\n");
  Table quorum_table({"n", "map Mup/s", "flat Mup/s", "speedup"});
  const QuorumResult quorum_rows[] = {
      measure_quorum(16, 4'000'000),
      measure_quorum(256, 4'000'000),
  };
  for (const QuorumResult& r : quorum_rows) {
    char map_s[32], flat_s[32], speedup[32];
    std::snprintf(map_s, sizeof map_s, "%.1f", r.map_ups / 1e6);
    std::snprintf(flat_s, sizeof flat_s, "%.1f", r.flat_ups / 1e6);
    std::snprintf(speedup, sizeof speedup, "%.2fx", r.speedup());
    quorum_table.add_row({std::to_string(r.n), map_s, flat_s, speedup});
  }
  quorum_table.print();

  const TraceOverheadResult trace = measure_trace_overhead();
  std::printf("\nengine: tracing cost — disarmed emission sites vs full "
              "recording (SSBFT_TRACING=%d)\n", SSBFT_TRACING);
  std::printf("tracing off: %.2f Mevents/s   tracing on: %.2f Mevents/s "
              "(%.1f%% overhead when armed)\n",
              trace.off_eps / 1e6, trace.on_eps / 1e6,
              trace.off_eps > 0
                  ? (1.0 - trace.on_eps / trace.off_eps) * 100.0
                  : 0.0);

  std::printf("\nengine: payload pipeline — pooled command bodies + keyed "
              "authentication on the scenario hot path\n");
  Table payload_table({"body bytes", "Mev/s", "wire bytes", "pool-copied",
                       "fan-out", "sharded parity"});
  const PayloadRow payload_rows[] = {
      measure_payload(0),
      measure_payload(256),
      measure_payload(4096),
  };
  for (const PayloadRow& r : payload_rows) {
    char eps[32], fanout[32];
    std::snprintf(eps, sizeof eps, "%.2f", r.eps / 1e6);
    if (r.copied > 0) {
      std::snprintf(fanout, sizeof fanout, "%.1fx",
                    double(r.admitted) / double(r.copied));
    } else {
      std::snprintf(fanout, sizeof fanout, "-");
    }
    payload_table.add_row({std::to_string(r.size), eps,
                           std::to_string(r.admitted),
                           std::to_string(r.copied), fanout,
                           r.parity ? "yes" : "DIVERGED"});
  }
  payload_table.print();

  const SweepResult sweeps = measure_sweeps(40);
  std::printf("\nengine: scenario hot path (n=7, f=2, noise adversary, one "
              "agreement per run)\n");
  std::printf("serial: %.2f Mevents/s, p50 agreement latency %.3f ms\n",
              sweeps.events_per_sec_serial / 1e6, sweeps.latency_p50_ms);
  std::printf("sweep scaling: %.0f (t=1)  %.0f (t=2)  %.0f (t=4) "
              "scenarios/s — per-run digests %s serial\n",
              sweeps.scenarios_per_sec[0], sweeps.scenarios_per_sec[1],
              sweeps.scenarios_per_sec[2],
              sweeps.deterministic ? "bit-identical to" : "DIVERGED from");

  if (std::FILE* out = std::fopen("BENCH_engine.json", "w")) {
    std::fprintf(
        out,
        "{\n"
        "  \"hardware_threads\": %u,\n"
        "  \"raw_dispatch\": {\n"
        "    \"in_flight_64\": {\"legacy_events_per_sec\": %.0f, "
        "\"slab_events_per_sec\": %.0f, \"speedup\": %.3f},\n"
        "    \"in_flight_4096\": {\"legacy_events_per_sec\": %.0f, "
        "\"slab_events_per_sec\": %.0f, \"speedup\": %.3f}\n"
        "  },\n"
        "  \"timer_saturation\": {\n"
        "    \"in_flight_64\": {\"heap_events_per_sec\": %.0f, "
        "\"wheel_events_per_sec\": %.0f, \"speedup\": %.3f},\n"
        "    \"in_flight_1024\": {\"heap_events_per_sec\": %.0f, "
        "\"wheel_events_per_sec\": %.0f, \"speedup\": %.3f},\n"
        "    \"in_flight_8192\": {\"heap_events_per_sec\": %.0f, "
        "\"wheel_events_per_sec\": %.0f, \"speedup\": %.3f}\n"
        "  },\n"
        "  \"quorum_tracking\": {\n"
        "    \"n_16\": {\"map_events_per_sec\": %.0f, "
        "\"flat_events_per_sec\": %.0f, \"speedup\": %.3f},\n"
        "    \"n_256\": {\"map_events_per_sec\": %.0f, "
        "\"flat_events_per_sec\": %.0f, \"speedup\": %.3f}\n"
        "  },\n"
        "  \"scenario_hot_path\": {\n"
        "    \"events_per_sec\": %.0f,\n"
        "    \"latency_p50_ms\": %.6f\n"
        "  },\n"
        "  \"trace_overhead\": {\n"
        "    \"traceoff_events_per_sec\": %.0f,\n"
        "    \"traceon_events_per_sec\": %.0f\n"
        "  },\n"
        "  \"payload_pipeline\": {\n"
        "    \"size_0\": {\"events_per_sec\": %.0f, "
        "\"wire_payload_bytes\": %llu, \"pool_copied_bytes\": %llu, "
        "\"parity\": %s},\n"
        "    \"size_256\": {\"events_per_sec\": %.0f, "
        "\"wire_payload_bytes\": %llu, \"pool_copied_bytes\": %llu, "
        "\"parity\": %s},\n"
        "    \"size_4096\": {\"events_per_sec\": %.0f, "
        "\"wire_payload_bytes\": %llu, \"pool_copied_bytes\": %llu, "
        "\"parity\": %s}\n"
        "  },\n"
        "  \"sweep\": {\n"
        "    \"scenarios_per_sec_t1\": %.2f,\n"
        "    \"scenarios_per_sec_t2\": %.2f,\n"
        "    \"scenarios_per_sec_t4\": %.2f,\n"
        "    \"deterministic\": %s\n"
        "  }\n"
        "}\n",
        std::thread::hardware_concurrency(),
        raw_small.legacy_eps, raw_small.slab_eps, raw_small.speedup(),
        raw_large.legacy_eps, raw_large.slab_eps, raw_large.speedup(),
        timer_rows[0].heap_eps, timer_rows[0].wheel_eps,
        timer_rows[0].speedup(), timer_rows[1].heap_eps,
        timer_rows[1].wheel_eps, timer_rows[1].speedup(),
        timer_rows[2].heap_eps, timer_rows[2].wheel_eps,
        timer_rows[2].speedup(),
        quorum_rows[0].map_ups, quorum_rows[0].flat_ups,
        quorum_rows[0].speedup(),
        quorum_rows[1].map_ups, quorum_rows[1].flat_ups,
        quorum_rows[1].speedup(),
        sweeps.events_per_sec_serial, sweeps.latency_p50_ms,
        trace.off_eps, trace.on_eps,
        payload_rows[0].eps,
        static_cast<unsigned long long>(payload_rows[0].admitted),
        static_cast<unsigned long long>(payload_rows[0].copied),
        payload_rows[0].parity ? "true" : "false",
        payload_rows[1].eps,
        static_cast<unsigned long long>(payload_rows[1].admitted),
        static_cast<unsigned long long>(payload_rows[1].copied),
        payload_rows[1].parity ? "true" : "false",
        payload_rows[2].eps,
        static_cast<unsigned long long>(payload_rows[2].admitted),
        static_cast<unsigned long long>(payload_rows[2].copied),
        payload_rows[2].parity ? "true" : "false",
        sweeps.scenarios_per_sec[0], sweeps.scenarios_per_sec[1],
        sweeps.scenarios_per_sec[2], sweeps.deterministic ? "true" : "false");
    std::fclose(out);
    std::printf("(wrote BENCH_engine.json)\n");
  }
}

void BM_RawDispatchLegacy(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chain_events_per_sec<LegacyEventQueue>(64, 200'000));
  }
}
BENCHMARK(BM_RawDispatchLegacy)->Unit(benchmark::kMillisecond);

void BM_RawDispatchSlab(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain_events_per_sec<EventQueue>(64, 200'000));
  }
}
BENCHMARK(BM_RawDispatchSlab)->Unit(benchmark::kMillisecond);

void BM_ScenarioSweep(benchmark::State& state) {
  for (auto _ : state) {
    SweepSpec spec;
    spec.scenarios = {engine_scenario()};
    spec.seeds_per_scenario = 5;
    spec.threads = std::uint32_t(state.range(0));
    benchmark::DoNotOptimize(SweepRunner(spec).run().passed);
  }
}
BENCHMARK(BM_ScenarioSweep)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ssbft::print_and_record();
  return 0;
}
