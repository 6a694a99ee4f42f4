// perfbench — runs one benchmark workload against the library's public API
// (Scenario → Cluster, SweepRunner), checks every output, and prints one
// JSON object of raw measurements on stdout. run.py builds this program,
// reduces the raw samples to the named metrics and prints the result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0 --phase judge|time
//   perfbench --workload NAME --seed N --seconds S --trace 1
//   (--tiny shrinks every unit, for the self-tests)
//
// --trace 0  end-to-end run, in two phases (run.py runs one judging and
//            several timing processes). --phase judge: the workload's
//            distinct seeded units are run and judged (simulated metrics).
//            --phase time: one identical unit is repeated until the time
//            budget is spent (host-time samples).
// --trace 1  traced run: the unit runs with Scenario::trace and a network
//            tap; layer counters are read from collect_run_stats, the
//            tracer and the tap, and each layer's public functions are
//            timed from outside on the traffic this workload produced.
// Exit codes: 0 measured and every check passed, 1 a check failed (the
// JSON still prints), 2 bad arguments.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/runner.hpp"
#include "harness/stats_registry.hpp"
#include "harness/sweep.hpp"
#include "harness/trace.hpp"
#include "sim/auth.hpp"
#include "sim/duty_world.hpp"
#include "sim/event_queue.hpp"
#include "sim/payload.hpp"
#include "sim/tap.hpp"
#include "sim/timer_wheel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ssbft;
using Clock = std::chrono::steady_clock;

double since_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// --- output --------------------------------------------------------------------

/// Flat JSON object writer: numbers, booleans, strings, number lists and
/// one level of nested number maps — all the raw output needs.
class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void flag(const std::string& key, bool v) { field(key, v ? "true" : "false"); }
  void str(const std::string& key, const std::string& v) {
    field(key, quote(v));
  }
  void list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    field(key, s + "]");
  }
  void strings(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + quote(v[i]);
    field(key, s + "]");
  }
  void map(const std::string& key, const std::map<std::string, double>& m) {
    JsonOut inner;
    for (const auto& [k, v] : m) inner.num(k, v);
    field(key, inner.text());
  }
  void map_lists(const std::string& key,
                 const std::map<std::string, std::vector<double>>& m) {
    JsonOut inner;
    for (const auto& [k, v] : m) inner.list(k, v);
    field(key, inner.text());
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
  }
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += quote(key) + ":" + value;
  }
  std::string body_;
};

// --- running units ---------------------------------------------------------------

SweepSpec sweep_spec(const std::vector<Scenario>& grid, std::uint32_t threads) {
  SweepSpec spec;
  spec.scenarios = grid;
  spec.seeds_per_scenario = 1;
  spec.seed0 = grid.front().seed;
  spec.threads = threads;
  return spec;
}

/// Runs a sweep grid and judges every cell; the sweep's worker threads
/// each write only their own cell's slot.
std::vector<Verdict> run_sweep_judged(const std::vector<Scenario>& grid,
                                      std::uint32_t threads) {
  std::vector<Verdict> cells(grid.size());
  SweepSpec spec = sweep_spec(grid, threads);
  spec.per_run = [&cells](const SweepRun& run, Cluster& cluster) {
    cells[run.scenario_index] = judge(cluster);
  };
  (void)SweepRunner(std::move(spec)).run();
  return cells;
}

/// Folds per-cell digests in grid order into one unit digest.
std::uint64_t fold_digest(std::uint64_t digest, std::uint64_t cell) {
  return digest * 1099511628211ull ^ cell;
}

struct Totals {
  std::uint64_t ops = 0, judged = 0, passed = 0;
  std::uint64_t sent = 0, wire_bytes = 0;
  std::uint64_t first_digest = 0;  // of the first unit: the timed one
  std::vector<double> latency_ns, recovery_ns;
  std::vector<std::string> failures;

  void add(const Verdict& v) {
    sent += v.sent;
    wire_bytes += v.wire_bytes;
    latency_ns.insert(latency_ns.end(), v.latency_ns.begin(), v.latency_ns.end());
    recovery_ns.insert(recovery_ns.end(), v.recovery_ns.begin(),
                       v.recovery_ns.end());
    for (const auto& f : v.failures) {
      if (failures.size() < 20) failures.push_back(f);
    }
  }
};

/// Runs and judges every distinct seeded unit of the workload. A sweep
/// cell is one op, passing iff the stack's own verdict and every per-op
/// and recovery check pass.
Totals run_sim_units(const Workload& w) {
  Totals t;
  for (std::size_t u = 0; u < w.sim_units.size(); ++u) {
    const auto& unit = w.sim_units[u];
    std::uint64_t digest = 0;
    if (w.sweep()) {
      const std::vector<Verdict> cells = run_sweep_judged(unit, w.sweep_threads);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const Verdict& v = cells[i];
        t.add(v);
        digest = fold_digest(digest, v.digest);
        ++t.ops;
        ++t.judged;
        if (v.stack_pass && v.passed == v.judged) {
          ++t.passed;
        } else if (t.failures.size() < 20) {
          const Scenario& sc = unit[i];
          t.failures.push_back(
              "cell " + std::to_string(i) + " (" + to_string(sc.stack) +
              " n=" + std::to_string(sc.n) + " " + to_string(sc.adversary) +
              (sc.transient_scramble ? " scrambled" : "") + "): " +
              (v.stack_pass ? "per-op check" : "stack guarantee") + " failed");
        }
      }
    } else {
      Cluster cluster(unit.front());
      cluster.run();
      const Verdict v = judge(cluster);
      t.add(v);
      digest = v.digest;
      t.ops += v.ops;
      t.judged += v.judged;
      t.passed += v.passed;
    }
    if (u == 0) t.first_digest = digest;
  }
  return t;
}

/// One timed repetition of the unit: host ns for the whole unit (Cluster
/// build, start with its scramble, run), plus its digest.
struct Rep {
  double unit_ns = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

Rep run_unit(const Scenario& sc) {
  Rep r;
  const auto t0 = Clock::now();
  Cluster cluster(sc);
  cluster.run();
  r.unit_ns = since_ns(t0);
  r.digest = run_digest(cluster.probe(), cluster.world().net_stats());
  r.events = cluster.world().dispatched();
  return r;
}

/// One timed repetition of the sweep unit: the whole grid on the worker
/// pool. The digest folds every cell's digest in grid order.
Rep run_sweep_unit(const std::vector<Scenario>& grid, std::uint32_t threads) {
  Rep r;
  const auto t0 = Clock::now();
  const SweepReport report = SweepRunner(sweep_spec(grid, threads)).run();
  r.unit_ns = since_ns(t0);
  for (const SweepRun& run : report.runs) r.digest = fold_digest(r.digest, run.digest);
  r.events = report.events;
  return r;
}

/// Set-up of the sweep unit: every cell's Cluster build + start, serially.
double sweep_setup_ns(const std::vector<Scenario>& grid) {
  double total = 0;
  for (const Scenario& sc : grid) {
    const auto t0 = Clock::now();
    Cluster cluster(sc);
    cluster.start();
    total += since_ns(t0);
  }
  return total;
}

/// Calls `fn` until `seconds` have passed, and at least `min_reps` times.
void repeat_for(double seconds, int min_reps, const std::function<void()>& fn) {
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  for (int i = 0; i < min_reps || Clock::now() < end; ++i) fn();
}

double remaining(Clock::time_point deadline) {
  return std::max(0.0, std::chrono::duration<double>(deadline - Clock::now())
                           .count());
}

// --- trace 0: end-to-end measurement ------------------------------------------------

/// Simulated phase: runs and judges the distinct seeded units, checks the
/// sharded workload's serial twin, and records the timed unit's digest.
void judge_phase(const Workload& w, JsonOut& out,
                 std::vector<std::string>& errors) {
  const Totals sim = run_sim_units(w);
  // The first seeded unit is the timed one.
  const std::uint64_t reference = sim.first_digest;
  // The sharded workload's serial twin must hash identically.
  if (!w.sweep() && w.unit.shards > 1) {
    const bool match = run_unit(serial_twin(w.unit)).digest == reference;
    out.flag("twin_digest_match", match);
    if (!match) errors.push_back("serial-twin digest mismatch");
  }
  out.num("reference_digest", double(reference % (1ull << 52)));
  out.num("ops_per_unit", double(w.ops_per_unit()));
  out.num("sim_units", double(w.sim_units.size()));
  out.num("sim_ops", double(sim.ops));
  out.num("judged_ops", double(sim.judged));
  out.num("passed_ops", double(sim.passed));
  out.num("sent_per_op", double(sim.sent) / double(sim.ops));
  out.num("bytes_per_op", double(sim.wire_bytes) / double(sim.ops));
  out.list("latency_ns", sim.latency_ns);
  out.list("recovery_ns", sim.recovery_ns);
  out.strings("failures", sim.failures);
}

/// Frozen machine-speed probe: a dependent walk through a 2 MiB random
/// cycle with a hash per step — cache misses and ALU work, roughly the
/// simulator's mix. Its code never changes, so its time tracks only how
/// fast the shared host runs at the moment; run.py divides it out.
class SpeedProbe {
 public:
  SpeedProbe() : next_(kSlots) {
    for (std::uint32_t i = 0; i < kSlots; ++i) next_[i] = i;
    std::uint64_t state = 0x5eed;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(next_[i], next_[std::uint32_t(state >> 33) % i]);
    }
  }

  double run_ns() {
    const auto t0 = Clock::now();
    std::uint32_t at = 0;
    std::uint64_t h = 0;
    for (std::uint32_t k = 0; k < kSteps; ++k) {
      at = next_[at];
      h = (h ^ at) * 1099511628211ull;
    }
    const double ns = since_ns(t0);
    sink_ ^= h;
    return ns;
  }

  [[nodiscard]] std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::uint32_t kSlots = (2u << 20) / sizeof(std::uint32_t);
  static constexpr std::uint32_t kSteps = 200000;
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;
};

/// Timed phase: repeats the identical unit until the deadline, each time
/// after one speed-probe repetition. Every repetition must reproduce the
/// first one's digest.
void time_phase(const Workload& w, Clock::time_point deadline, JsonOut& out,
                std::vector<std::string>& errors) {
  std::vector<double> unit_ns, setup_ns, probe_ns;
  std::uint64_t reference = 0, unit_events = 0, mismatches = 0;
  SpeedProbe probe;
  const auto once = [&] {
    probe_ns.push_back(probe.run_ns());
    const Rep r = w.sweep() ? run_sweep_unit(w.grid, w.sweep_threads)
                            : run_unit(w.unit);
    if (unit_ns.empty()) {
      reference = r.digest;
      unit_events = r.events;
    }
    if (r.digest != reference) ++mismatches;
    unit_ns.push_back(r.unit_ns);
    // Set-up alone, back to back, for about a tenth of the unit's time: a
    // set-up sampled once per unit is too short to escape the unit's wake.
    double spent = 0;
    do {
      const auto t0 = Clock::now();
      if (w.sweep()) {
        setup_ns.push_back(sweep_setup_ns(w.grid));
      } else {
        Cluster cluster(w.unit);
        cluster.start();
        setup_ns.push_back(since_ns(t0));
      }
      spent += since_ns(t0);
    } while (spent < 0.1 * r.unit_ns);
  };
  repeat_for(remaining(deadline), 8, once);
  if (mismatches > 0) {
    errors.push_back("a repetition of the identical unit changed its digest");
  }
  out.num("timed_digest", double(reference % (1ull << 52)));
  out.num("ops_per_unit", double(w.ops_per_unit()));
  out.num("events_per_unit", double(unit_events));
  out.num("mismatched_reps", double(mismatches));
  out.list("unit_ns", unit_ns);
  out.list("setup_ns", setup_ns);
  out.list("probe_ns", probe_ns);
  out.num("probe_sink", double(probe.sink() & 1));
}

// --- trace 1: per-layer run ------------------------------------------------------------

/// What the network tap captured from one serial unit.
struct Capture {
  std::vector<WireMessage> messages;    // sent messages (capped)
  std::vector<std::uint32_t> pooled;    // payload sizes above the inline cap
  std::vector<std::int64_t> send_at;    // send instants of matched deliveries
  std::vector<std::int64_t> delta;      // send → delivery, same order
};

/// Tap that pairs each delivery with its send (FIFO per message identity).
class CaptureTap {
 public:
  explicit CaptureTap(Capture& capture) : capture_(capture) {}

  void operator()(const TapEvent& e) {
    const std::uint64_t key = identity(e);
    switch (e.kind) {
      case TapEvent::Kind::kSent:
        pending_[key].push_back(e.at.ns());
        if (capture_.messages.size() < kCap) capture_.messages.push_back(e.msg);
        if (e.msg.payload.pooled() && capture_.pooled.size() < kCap) {
          capture_.pooled.push_back(e.msg.payload.size());
        }
        break;
      case TapEvent::Kind::kDelivered: {
        auto it = pending_.find(key);
        if (it == pending_.end() || it->second.empty()) break;
        const std::int64_t sent = it->second.front();
        it->second.erase(it->second.begin());
        if (capture_.delta.size() < kCap) {
          capture_.send_at.push_back(sent);
          capture_.delta.push_back(e.at.ns() - sent);
        }
        break;
      }
      default:
        break;
    }
  }

 private:
  static constexpr std::size_t kCap = 200000;

  static std::uint64_t identity(const TapEvent& e) {
    std::uint64_t h = 1469598103934665603ull;
    const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    fold(e.from);
    fold(e.to);
    fold(std::uint64_t(e.msg.kind));
    fold(e.msg.general.node);
    fold(e.msg.general.index);
    fold(e.msg.value);
    fold(e.msg.broadcaster);
    fold(e.msg.round);
    fold(e.msg.payload.checksum());
    return h;
  }

  Capture& capture_;
  std::unordered_map<std::uint64_t, std::vector<std::int64_t>> pending_;
};

double stat(const StatsRegistry& reg, const std::string& path,
            std::vector<std::string>* absent = nullptr) {
  if (const StatsEntry* e = reg.find(path)) return e->value;
  if (absent != nullptr) absent->push_back(path);
  return 0;
}

/// Counters read from one traced serial unit (tap + tracer + stats).
struct TracedUnit {
  Capture capture;
  StatsRegistry stats;
  NetworkStats net;
  std::uint64_t events = 0;
  std::uint64_t round_spans = 0, quorum_progress = 0, trace_dropped = 0;
  double decision_skew_ms = 0, tau_g_skew_ms = 0;
  double commits = 0;  // log entries committed, per correct node
  std::uint64_t delivered_entries = 0, skipped_entries = 0;
};

void read_traced(Cluster& cluster, TracedUnit& t) {
  t.stats = collect_run_stats(cluster);
  t.net = cluster.world().net_stats();
  t.events += cluster.world().dispatched();
  if (const Tracer* tracer = cluster.tracer()) {
    t.trace_dropped += tracer->dropped();
    for (const TraceRecord& r : tracer->merged()) {
      if (r.name == TraceName::kAgreeRound && r.kind == TraceKind::kAsyncBegin) {
        ++t.round_spans;
      } else if (r.name == TraceName::kQuorumProgress) {
        ++t.quorum_progress;
      }
    }
  }
  // Skews of the executions the guarantees cover (after stabilization).
  const RealTime from = RealTime::zero() + stable_from(cluster.scenario());
  for (const Execution& e :
       cluster_executions(cluster.decisions(), cluster.params())) {
    if (e.first_return() < from) continue;
    t.decision_skew_ms = std::max(t.decision_skew_ms, e.decision_skew().millis());
    t.tau_g_skew_ms = std::max(t.tau_g_skew_ms, e.tau_g_skew().millis());
  }
  const std::uint64_t before = t.delivered_entries;
  for (const auto& d : cluster.probe().deliveries()) {
    ++(d.entry.skipped ? t.skipped_entries : t.delivered_entries);
  }
  t.delivered_entries += cluster.probe().commits().size();
  t.commits += double(t.delivered_entries - before) /
               double(std::max(1u, cluster.correct_count()));
}

/// Runs one serial scenario with the tracer and the capture tap armed.
void traced_run(Scenario sc, TracedUnit& t) {
  sc.trace = true;
  Cluster cluster(sc);
  cluster.world().network().set_tap(CaptureTap(t.capture));
  cluster.run();
  read_traced(cluster, t);
  cluster.world().network().set_tap(nullptr);
}

void layers(const Workload& w, Clock::time_point deadline, JsonOut& out,
            std::vector<std::string>& errors) {
  const double budget = remaining(deadline);
  const std::uint64_t ops = w.ops_per_unit();
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> absent;

  // The serial scenarios the tap and tracer are armed on: the unit itself,
  // the sharded unit's digest-identical serial twin, or every sweep cell.
  const std::vector<Scenario> serial =
      w.sweep() ? w.grid
                : std::vector<Scenario>{w.unit.shards > 1 ? serial_twin(w.unit)
                                                          : w.unit};

  // 1. Traced unit: counters from the tap, the tracer and the registry.
  TracedUnit t;
  std::uint64_t queue_peak = 0, wheel_peak = 0;
  NetworkStats net;
  for (const Scenario& sc : serial) {
    traced_run(sc, t);
    net += t.net;
    queue_peak = std::max<std::uint64_t>(queue_peak,
                                         std::uint64_t(stat(t.stats, "queue.peak_bytes")));
    wheel_peak = std::max<std::uint64_t>(
        wheel_peak, std::uint64_t(stat(t.stats, "wheel.peak_records")));
  }
  const double per_op = 1.0 / double(ops);
  values["queue.events_per_op"] = double(t.events) * per_op;
  values["queue.peak_bytes"] = double(queue_peak);
  values["wheel.peak_records"] = double(wheel_peak);
  // Timer events that reached the heap: dispatches that were neither a
  // delivery (accepted, rejected or forged) nor a workload injection.
  const double deliveries = double(net.delivered + net.auth_rejected);
  std::uint64_t injections = 0;
  for (const Scenario& sc : serial) injections += sc.proposals.size();
  values["wheel.arms_per_op"] =
      std::max(0.0, double(t.events) - deliveries - double(net.forged) -
                        double(injections)) *
      per_op;
  values["net.sent_per_op"] = double(net.sent) * per_op;
  values["net.delivered_per_op"] = double(net.delivered) * per_op;
  values["net.dropped_per_op"] = double(net.dropped) * per_op;
  values["net.forged_per_op"] = double(net.forged) * per_op;
  values["net.topology_hops_per_op"] = double(net.topology_hops) * per_op;
  values["net.fanout_msgs_per_op"] = double(net.fanout_msgs) * per_op;
  for (std::size_t k = 0; k < net.per_kind.size(); ++k) {
    std::string name = to_string(MsgKind(k));
    for (char& c : name) {
      if (c == '\'') c = 'p';
      if (c == '-') c = '_';
    }
    values["net.kind." + name + "_per_op"] = double(net.per_kind[k]) * per_op;
  }
  values["auth.verifies_per_op"] = deliveries * per_op;
  values["auth.rejected_per_op"] = double(net.auth_rejected) * per_op;
  values["pool.peak_bytes"] = double(payload_pool().peak_bytes());
  values["core.round_spans_per_op"] = double(t.round_spans) * per_op;
  values["core.quorum_progress_per_op"] = double(t.quorum_progress) * per_op;
  values["core.decision_skew_ms_max"] = t.decision_skew_ms;
  values["core.tauG_skew_ms_max"] = t.tau_g_skew_ms;
  values["app.commits_per_op"] = t.commits * per_op;
  const double entries = double(t.delivered_entries + t.skipped_entries);
  values["app.skipped_slot_frac"] =
      entries > 0 ? double(t.skipped_entries) / entries : 0.0;
  values["trace.dropped"] = double(t.trace_dropped);

  // 2. The deployed engine's own counters (shard windows, migrations).
  double migrations = 0, windows = 0, window_events = 0;
  double imbalance = 0, steals = 0;
  if (!w.sweep() && w.unit.shards > 1) {
    Scenario sc = w.unit;
    sc.trace = true;
    Cluster cluster(sc);
    cluster.run();
    const StatsRegistry reg = collect_run_stats(cluster);
    windows = stat(reg, "sched.windows");
    window_events = stat(reg, "sched.window_events");
    imbalance = stat(reg, "sched.imbalance_mean");
    steals = stat(reg, "sched.steals");
    migrations = stat(reg, "duty.migrations");
    for (const char* gauge : {"queue.peak_bytes", "wheel.peak_records"}) {
      stat(reg, gauge, &absent);
    }
    std::uint64_t window_spans = 0, migration_spans = 0;
    for (const TraceRecord& r : cluster.tracer()->merged()) {
      if (r.kind != TraceKind::kSpanBegin) continue;
      if (r.name == TraceName::kWindow) ++window_spans;
      if (r.name == TraceName::kMigrateToSerial ||
          r.name == TraceName::kMigrateToSharded) {
        ++migration_spans;
      }
    }
    values["trace.window_spans_per_op"] = double(window_spans) * per_op;
    values["trace.migration_spans_per_op"] = double(migration_spans) * per_op;
  } else {
    values["trace.window_spans_per_op"] = 0;
    values["trace.migration_spans_per_op"] = 0;
  }
  values["shard.windows_per_op"] = windows * per_op;
  values["shard.events_per_window"] = windows > 0 ? window_events / windows : 0;
  values["shard.imbalance_mean"] = imbalance;
  values["shard.steals_per_op"] = steals * per_op;
  values["duty.migrations_per_op"] = migrations * per_op;

  // 3. Host cost of the unit: untraced, traced (on the serial scenarios),
  //    and the deployed engine against the serial one — interleaved reps.
  //    The tracing overhead compares traced and untraced serial passes.
  const auto serial_pass = [&serial](bool trace) {
    const auto t0 = Clock::now();
    for (Scenario sc : serial) {
      sc.trace = trace;
      Cluster cluster(sc);
      cluster.run();
    }
    return since_ns(t0);
  };
  const bool sharded = !w.sweep() && w.unit.shards > 1;
  auto& untraced = samples["host.unit_ns"];
  auto& traced = samples["trace.unit_traced_ns"];
  auto& serial_ns = samples["serial_unit_ns"];
  auto& deployed_ns = samples["shard.deployed_unit_ns"];
  auto& cpu = samples["shard.cpu_s_per_op"];
  auto& migration_ms = samples["duty.migration_ms_per_op"];
  repeat_for(0.4 * budget, 5, [&] {
    const double s = serial_pass(false);
    serial_ns.push_back(s);
    traced.push_back(serial_pass(true));
    if (w.sweep()) {
      // The sweep's cells run on the serial engine: the shard layer is
      // compared like with like, the worker pool under sweep.*.
      const double c0 = cpu_seconds();
      const Rep r = run_sweep_unit(w.grid, w.sweep_threads);
      cpu.push_back((cpu_seconds() - c0) * per_op);
      untraced.push_back(r.unit_ns);
      deployed_ns.push_back(s);
      migration_ms.push_back(0);
    } else if (sharded) {
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      Cluster cluster(w.unit);
      cluster.run();
      const double ns = since_ns(t0);
      cpu.push_back((cpu_seconds() - c0) * per_op);
      untraced.push_back(ns);
      deployed_ns.push_back(ns);
      const auto* duty = dynamic_cast<const DutyWorld*>(&cluster.world());
      migration_ms.push_back(duty ? double(duty->migration_ns()) * 1e-6 * per_op
                                  : 0.0);
    } else {
      const double c0 = cpu_seconds();
      const double ns = serial_pass(false);
      cpu.push_back((cpu_seconds() - c0) * per_op);
      untraced.push_back(ns);
      deployed_ns.push_back(ns);
      migration_ms.push_back(0);
    }
  });

  // 4. Layer replays: each layer's public functions, timed from outside on
  //    the traffic captured above.
  const Capture& cap = t.capture;
  const double slice = 0.08 * budget;
  {
    const Authenticator auth(serial.front().auth, serial.front().seed);
    std::vector<WireMessage> msgs = cap.messages;
    if (msgs.empty()) msgs.push_back(WireMessage{});
    repeat_for(slice, 5, [&] {
      auto t0 = Clock::now();
      for (WireMessage& m : msgs) auth.sign(m);
      samples["auth.ns_per_sign"].push_back(since_ns(t0) / double(msgs.size()));
      std::uint64_t ok = 0;
      t0 = Clock::now();
      for (const WireMessage& m : msgs) ok += auth.verify(m) ? 1 : 0;
      samples["auth.ns_per_verify"].push_back(since_ns(t0) / double(msgs.size()));
      if (ok != msgs.size()) errors.push_back("replayed signature failed to verify");
    });
  }
  {
    // Workloads without pooled bodies replay the smallest pooled size.
    std::vector<std::uint32_t> sizes = cap.pooled;
    if (sizes.empty()) sizes.assign(1024, Payload::kInlineCapacity + 1);
    std::vector<std::uint8_t> body(*std::max_element(sizes.begin(), sizes.end()), 7);
    PayloadPool& pool = payload_pool();
    repeat_for(slice, 5, [&] {
      const auto t0 = Clock::now();
      for (const std::uint32_t size : sizes) pool.release(pool.acquire(body.data(), size));
      samples["pool.ns_per_acquire_release"].push_back(since_ns(t0) /
                                                       double(sizes.size()));
    });
  }
  {
    std::vector<std::int64_t> at = cap.send_at, delta = cap.delta;
    if (at.empty()) {
      at.push_back(0);
      delta.push_back(1000);
    }
    // Queue replay: each captured delivery is scheduled at its send
    // instant with a closure the size of a real delivery, and every event
    // due before the next send is dispatched first.
    repeat_for(slice, 5, [&] {
      EventQueue queue;
      std::uint64_t fired = 0;
      const WireMessage msg = cap.messages.empty() ? WireMessage{} : cap.messages.front();
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < at.size(); ++i) {
        const RealTime now = RealTime::zero() + nanoseconds(at[i]);
        while (!queue.empty() && queue.next_time() <= now) queue.run_one();
        queue.schedule(std::max(now, queue.now()) + nanoseconds(delta[i]),
                       [&fired, msg] { fired += msg.value + 1; });
      }
      while (!queue.empty()) queue.run_one();
      samples["queue.ns_per_event"].push_back(since_ns(t0) / double(at.size()));
      if (fired == 0) errors.push_back("queue replay dispatched nothing");
    });
    // Wheel replay: the same deltas armed as timers, the wheel advanced to
    // each send instant and every due record claimed.
    repeat_for(slice, 5, [&] {
      TimerWheel wheel;
      std::vector<TimerWheel::Due> due;
      std::uint64_t claimed = 0;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < at.size(); ++i) {
        const RealTime now = RealTime::zero() + nanoseconds(at[i]);
        wheel.advance(now, due);
        for (const auto& d : due) {
          NodeId node = 0;
          std::uint64_t cookie = 0;
          claimed += wheel.claim(d.handle, node, cookie) ? 1 : 0;
        }
        (void)wheel.schedule(now + nanoseconds(delta[i]),
                             EventKey{NodeId(i % 64), 2 * i + 1}, NodeId(i % 64), i);
      }
      wheel.advance(RealTime::max() - seconds(1), due);
      for (const auto& d : due) {
        NodeId node = 0;
        std::uint64_t cookie = 0;
        claimed += wheel.claim(d.handle, node, cookie) ? 1 : 0;
      }
      samples["wheel.ns_per_arm"].push_back(since_ns(t0) / double(at.size()));
      if (claimed != at.size()) errors.push_back("wheel replay lost a timer");
    });
  }

  // 5. Harness calls on the workload's own scenarios.
  repeat_for(0.12 * budget, 5, [&] {
    double build = 0, start = 0, evaluate = 0, stats = 0;
    const std::vector<Scenario>& scs =
        w.sweep() ? serial : std::vector<Scenario>{w.unit};
    for (const Scenario& sc : scs) {
      auto t0 = Clock::now();
      Cluster cluster(sc);
      build += since_ns(t0);
      t0 = Clock::now();
      cluster.start();
      start += since_ns(t0);
      cluster.run();
      t0 = Clock::now();
      const StackOutcome outcome = evaluate_stack(cluster);
      evaluate += since_ns(t0);
      t0 = Clock::now();
      const StatsRegistry reg = collect_run_stats(cluster);
      stats += since_ns(t0);
      if (reg.entries().empty() || outcome.digest == 0) {
        errors.push_back("harness replay produced no output");
      }
    }
    samples["harness.build_ms"].push_back(build * 1e-6);
    samples["harness.start_ms"].push_back(start * 1e-6);
    samples["harness.evaluate_ms"].push_back(evaluate * 1e-6);
    samples["harness.stats_ms"].push_back(stats * 1e-6);
  });

  // 6. The sweep worker pool, on the sweep workload's grid at 4 threads
  //    and at 1. The other workloads use no pool: their sweep.* read the
  //    serial passes of step 3 (one cell each, speedup 1).
  if (w.sweep()) {
    SweepSpec spec = sweep_spec(w.grid, 4);
    values["sweep.cells"] = double(w.grid.size());
    repeat_for(remaining(deadline), 3, [&] {
      spec.threads = 4;
      auto t0 = Clock::now();
      (void)SweepRunner(spec).run();
      samples["sweep.t4_ns"].push_back(since_ns(t0));
      spec.threads = 1;
      t0 = Clock::now();
      (void)SweepRunner(spec).run();
      samples["sweep.t1_ns"].push_back(since_ns(t0));
    });
  } else {
    values["sweep.cells"] = 1;
    samples["sweep.t4_ns"] = serial_ns;
    samples["sweep.t1_ns"] = serial_ns;
  }

  out.num("ops_per_unit", double(ops));
  out.map("values", values);
  out.map_lists("samples", samples);
  out.strings("absent_on_engine", absent);
  out.num("serial_scenarios", double(serial.size()));
}

struct Args {
  Kind kind = Kind::kAgreeFlat;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string phase;  // trace 0: judge | time
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload agree_flat|log_hmac_chaos|agree_chaos_s4|"
               "sweep_mixed_t4 --seed N --seconds S --trace 0|1 [--tiny]\n"
               "       [--phase judge|time]   (required with --trace 0)\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        const auto kind = parse_kind(next());
        if (!kind) usage(argv[0]);
        a.kind = *kind;
        have_workload = true;
      } else if (arg == "--seed") {
        a.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(next());
      } else if (arg == "--trace") {
        a.trace = std::stoi(next()) != 0;
      } else if (arg == "--tiny") {
        a.tiny = true;
      } else if (arg == "--phase") {
        a.phase = next();
        if (a.phase != "judge" && a.phase != "time") {
          usage(argv[0]);
        }
      } else {
        usage(argv[0]);
      }
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }
  if (!have_workload || !(a.seconds > 0) || a.trace == !a.phase.empty()) {
    usage(argv[0]);
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  const Workload w = make_workload(args.kind, args.seed, args.tiny);

  JsonOut out;
  std::vector<std::string> errors;
  out.str("workload", to_string(args.kind));
  out.num("seed", double(args.seed));
  out.flag("trace", args.trace);
  out.flag("tiny", args.tiny);
  if (args.trace) {
    layers(w, deadline, out, errors);
  } else if (args.phase == "judge") {
    judge_phase(w, out, errors);
  } else {
    time_phase(w, deadline, out, errors);
  }
  // Every engine, snapshot and probe has let go: the pool must be empty.
  const std::uint32_t live = ssbft::payload_pool().live();
  out.num("pool_live_after_run", double(live));
  if (live != 0) errors.push_back("payload pool slots leaked");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.num("peak_rss_kb", double(ru.ru_maxrss));
  out.strings("errors", errors);
  std::printf("%s\n", out.text().c_str());
  return errors.empty() ? 0 : 1;
}
