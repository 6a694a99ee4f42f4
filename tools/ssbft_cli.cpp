// ssbft_cli — run simulated scenarios from the command line, all through
// the unified Scenario → Cluster path. Any protocol stack is deployable:
// --stack selects the layer. Two modes:
//
// Single run (default): one (Scenario, seed), full metrics-stream report.
//   ssbft_cli [--stack KIND] [--n N] [--f F] [--byz COUNT]
//             [--adversary KIND] [--seed S] [--delta-us US] [--scramble]
//             [--chaos-ms MS] [--chaos-count K] [--chaos-duty MS]
//             [--proposals K] [--run-ms MS] [--depth D]
//             [--auth KIND] [--payload-bytes N]
//             [--topology KIND] [--cluster-size C] [--gossip-fanout F]
//             [--shards S] [--link-min-us US]
//             [--trace PATH] [--stats-json PATH] [--json PATH]
//             [--wire-trace] [--verbose] [--help]
//
// Authenticated payloads (single run or sweep, any engine):
//   --auth hmac       tag every send with the deterministic keyed scheme
//                     (sim/auth.hpp); deliveries whose tag does not verify
//                     are discarded and counted (net auth_rejected). The
//                     default, --auth null, is the legacy untagged model.
//   --payload-bytes N attach an N-byte patterned command body to every
//                     injected proposal. Bodies ride the shared payload
//                     pool (zero-copy fan-out); the log stacks fold each
//                     committed body's checksum into the run digest.
//
// Observability outputs (single-run mode, any engine):
//   --trace PATH      record a structured timeline (harness/trace.hpp) and
//                     export it as Perfetto / chrome://tracing JSON — open
//                     at https://ui.perfetto.dev. Protocol round spans,
//                     engine window/steal/migration events,
//                     workload and chaos instants. Digests are bit-identical
//                     with or without it (test_trace pins that).
//   --stats-json PATH dump the self-describing stats registry (engine,
//                     network, scheduler, tracer counters with units+help).
//   --json PATH       machine-readable run report: outcome, net/sched
//                     stats (executor AND owner imbalance views), and the
//                     per-chaos-window stabilization rows.
//   --wire-trace      print every wire event to stdout (serial engine only;
//                     the old --trace flag).
//
// Dissemination overlay (sim/topology.hpp), single run or sweep:
//   --topology flat       all-to-all fan-out (the default)
//   --topology federated  two-level clusters: the origin reaches its own
//                         cluster plus one representative per foreign
//                         cluster; representatives relay locally. Needs
//                         --cluster-size C with C dividing n.
//   --topology gossip     fanout-F relay tree rooted at the origin. Needs
//                         --gossip-fanout F >= 1.
// Overlays change who fans a broadcast out, never who receives it; relays
// forward the origin's authenticated message unchanged. Same seed => same
// digest on every engine. With a chaos schedule non-flat overlays degrade
// to flat (a dropped relay copy would orphan a whole subtree).
//
// --shards S deploys on the windowed engine (S worker threads dispatching
// node-major inside each lookahead window, bit-identical results) and
// prints a scheduler report. It needs a lookahead: a link-delay
// distribution with a positive minimum, e.g. --link-min-us 100. Without
// one the run degrades to the serial engine. Combined with --chaos-ms the run
// alternates: each chaos window executes on the serial engine, the
// complete in-flight state migrates to the windowed engine for the
// stabilization stretch that follows, and migrates back when the next
// window opens — digests identical to all-serial. --chaos-count K repeats
// the window K times, --chaos-duty MS sets the start-to-start stride
// (0 ⇒ back-to-back); each run prints a per-window stabilization report
// (time to first correct observable after every burst).
//
// Sweep (--sweep): a Scenarios × seeds grid on the SweepRunner worker pool
// — one independent World per run, bit-identical to serial execution.
//   ssbft_cli --sweep [--stack KIND] [--sweep-n LIST] [--sweep-f LIST]
//             [--sweep-adversary LIST] [--seeds K] [--threads T]
//             [--csv PATH] [--json PATH] [...model flags as above]
//
// --stack     ∈ agree | pulse | clock | log | pipeline | tps
// --adversary ∈ silent | noise | equivocate | stagger | spam | replay | faker
//
// Examples:
//   ssbft_cli --n 7 --byz 2 --adversary noise --proposals 3
//   ssbft_cli --n 10 --byz 3 --scramble --chaos-ms 10 --proposals 20
//   ssbft_cli --stack pulse --n 7 --byz 2 --scramble
//   ssbft_cli --sweep --sweep-n 4,7,10 --sweep-adversary silent,noise
//             --seeds 8 --threads 4 --csv sweep.csv --json sweep.json
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "app/pipelined_log.hpp"
#include "app/replicated_log.hpp"
#include "clocksync/clock_sync.hpp"
#include "harness/metrics.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/stats_registry.hpp"
#include "harness/sweep.hpp"
#include "harness/trace.hpp"
#include "pulse/pulse_sync.hpp"
#include "sim/duty_world.hpp"
#include "sim/payload.hpp"
#include "sim/shard_world.hpp"
#include "sim/tap.hpp"
#include "util/csv.hpp"

namespace {

using namespace ssbft;

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--stack KIND] [--n N] [--f F] [--byz COUNT]\n"
               "          [--adversary KIND] [--seed S] [--delta-us US]\n"
               "          [--scramble] [--chaos-ms MS] [--chaos-count K]\n"
               "          [--chaos-duty MS] [--proposals K]\n"
               "          [--run-ms MS] [--depth D] [--shards S]\n"
               "          [--auth KIND] [--payload-bytes N]\n"
               "          [--topology KIND] [--cluster-size C]\n"
               "          [--gossip-fanout F] [--link-min-us US]\n"
               "          [--trace PATH] [--stats-json PATH] [--json PATH]\n"
               "          [--wire-trace] [--verbose] [--help]\n"
               "       %s --sweep [--sweep-n LIST] [--sweep-f LIST]\n"
               "          [--sweep-adversary LIST] [--seeds K] [--threads T]\n"
               "          [--csv PATH] [--json PATH]\n"
               "STACK: agree|pulse|clock|log|pipeline|tps\n"
               "ADVERSARY: silent|noise|equivocate|stagger|spam|replay|faker\n"
               "AUTH: null|hmac\n"
               "TOPOLOGY: flat|federated|gossip\n",
               argv0, argv0);
}

[[noreturn]] void usage(const char* argv0) {
  print_usage(stderr, argv0);
  std::exit(2);
}

AdversaryKind parse_adversary(const std::string& name, const char* argv0) {
  if (name == "silent") return AdversaryKind::kSilent;
  if (name == "noise") return AdversaryKind::kNoise;
  if (name == "equivocate") return AdversaryKind::kEquivocatingGeneral;
  if (name == "stagger") return AdversaryKind::kStaggeredGeneral;
  if (name == "spam") return AdversaryKind::kSpamGeneral;
  if (name == "replay") return AdversaryKind::kReplay;
  if (name == "faker") return AdversaryKind::kQuorumFaker;
  usage(argv0);
}

AuthKind parse_auth(const std::string& name, const char* argv0) {
  if (name == "null") return AuthKind::kNull;
  if (name == "hmac") return AuthKind::kHmac;
  usage(argv0);
}

Topology parse_topology(const std::string& name, const char* argv0) {
  if (name == "flat") return Topology::kFlat;
  if (name == "federated") return Topology::kFederated;
  if (name == "gossip") return Topology::kGossip;
  usage(argv0);
}

StackKind parse_stack(const std::string& name, const char* argv0) {
  if (name == "agree") return StackKind::kAgree;
  if (name == "pulse") return StackKind::kPulse;
  if (name == "clock") return StackKind::kClockSync;
  if (name == "log") return StackKind::kReplicatedLog;
  if (name == "pipeline") return StackKind::kPipelinedLog;
  if (name == "tps") return StackKind::kBaselineTps;
  usage(argv0);
}

/// Strict decimal parse in [min_value, max_value]; anything else (junk,
/// sign, overflow) is a usage error — atoi/strtoul would silently wrap a
/// "-1" into ~4 billion threads/seeds/nodes.
std::uint32_t parse_u32(const std::string& item, const char* argv0,
                        std::uint32_t min_value, std::uint32_t max_value) {
  if (item.empty()) usage(argv0);
  unsigned long long value = 0;
  for (const char c : item) {
    if (c < '0' || c > '9') usage(argv0);
    value = value * 10 + (c - '0');
    if (value > max_value) usage(argv0);
  }
  if (value < min_value) usage(argv0);
  return std::uint32_t(value);
}

std::uint64_t parse_u64(const std::string& item, const char* argv0) {
  if (item.empty()) usage(argv0);
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::uint64_t value = 0;
  for (const char c : item) {
    if (c < '0' || c > '9') usage(argv0);
    const std::uint64_t digit = std::uint64_t(c - '0');
    if (value > (kMax - digit) / 10) usage(argv0);  // overflow, like parse_u32
    value = value * 10 + digit;
  }
  return value;
}

/// Split "a,b,c" and parse each item with `parse_item`.
template <class T, class ParseItem>
std::vector<T> parse_list(const std::string& list, const char* argv0,
                          ParseItem parse_item) {
  std::vector<T> out;
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string item = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (item.empty()) usage(argv0);
    out.push_back(parse_item(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) usage(argv0);
  return out;
}

std::vector<std::uint32_t> parse_u32_list(const std::string& list,
                                          const char* argv0) {
  // Zero is rejected: a silent 0 axis point would be dropped by the n > 3f
  // filter and the user would never know.
  return parse_list<std::uint32_t>(list, argv0, [&](const std::string& item) {
    return parse_u32(item, argv0, 1, 10'000);
  });
}

std::vector<AdversaryKind> parse_adversary_list(const std::string& list,
                                                const char* argv0) {
  return parse_list<AdversaryKind>(list, argv0, [&](const std::string& item) {
    return parse_adversary(item, argv0);
  });
}

/// Append the stack-shaped workload (after any scramble/chaos warm-up) and
/// return the matching run horizon. Shared by the single-run and sweep
/// paths — the deployment path is stack-agnostic, the workload is not.
/// With a recurring duty cycle the workload starts after the FIRST window
/// only (later windows hitting it mid-flight is the point), and the
/// horizon stretches past the LAST window so the final recovery span —
/// where the stabilization metrics live — is actually observed.
Duration shape_workload(Scenario& sc, std::uint32_t proposals) {
  const Params params = sc.make_params();
  const Duration first_chaos_end =
      sc.chaos_period > Duration::zero() && sc.chaos_count > 0
          ? sc.chaos_first_start + sc.chaos_period
          : Duration::zero();
  const Duration start = first_chaos_end +
                         (sc.transient_scramble ? params.delta_stb()
                                                : Duration::zero());
  const auto stretch_past_last_window = [&](Duration shaped) {
    if (sc.chaos_period <= Duration::zero() || sc.chaos_count < 2) {
      return shaped;
    }
    const Duration stride = sc.chaos_duty > Duration::zero() ? sc.chaos_duty
                                                             : sc.chaos_period;
    const Duration last_end = sc.chaos_first_start +
                              (sc.chaos_count - 1) * stride + sc.chaos_period;
    return std::max(shaped, last_end + params.delta_stb());
  };
  switch (sc.stack) {
    case StackKind::kAgree: {
      const Duration gap = params.delta_0() + 5 * params.d();
      for (std::uint32_t i = 0; i < proposals; ++i) {
        sc.with_proposal(start + milliseconds(1) + i * gap, 0, 100 + Value(i));
      }
      return stretch_past_last_window(start + proposals * gap +
                                     milliseconds(120));
    }
    case StackKind::kBaselineTps:
      sc.tps.anchor = start + milliseconds(5);
      sc.with_proposal(start + milliseconds(1), sc.tps.general, 100);
      return stretch_past_last_window(start + milliseconds(120));
    case StackKind::kReplicatedLog:
    case StackKind::kPipelinedLog: {
      // Round-robin over the CORRECT nodes only: a command routed to a
      // Byzantine replica would be silently dropped at injection.
      std::vector<NodeId> correct;
      for (NodeId id = 0; id < sc.n; ++id) {
        if (!sc.is_byzantine(id)) correct.push_back(id);
      }
      for (std::uint32_t i = 0; i < proposals && !correct.empty(); ++i) {
        sc.with_proposal(start, correct[i % correct.size()], 100 + Value(i));
      }
      return stretch_past_last_window(
          start + (proposals + 4) * (params.delta_0() + params.delta_agr() +
                                     10 * params.d()));
    }
    case StackKind::kPulse:
    case StackKind::kClockSync:
      // Self-clocking: no workload; run long enough to stabilize + pulse.
      return stretch_past_last_window(
          start + params.delta_stb() +
          16 * 2 * (params.delta_0() + params.delta_agr()));
  }
  return stretch_past_last_window(start + milliseconds(120));
}

/// Decision-stream report (kAgree / kBaselineTps): execution table plus
/// Agreement/Validity accounting. Returns the process exit code.
int report_decisions(Cluster& cluster) {
  const Params& params = cluster.params();
  Table table({"exec", "general", "value", "deciders", "aborts",
               "dec skew (ms)", "tauG skew (ms)", "first (ms)"});
  const auto execs = cluster_executions(cluster.decisions(), params);
  std::uint32_t id = 0;
  for (const auto& e : execs) {
    const auto value = e.agreed_value();
    table.add_row({std::to_string(id++), std::to_string(e.general.node),
                   value ? std::to_string(*value)
                         : (e.decided_count() ? "MIXED!" : "⊥"),
                   std::to_string(e.decided_count()),
                   std::to_string(e.abort_count()),
                   Table::fmt_ms(double(e.decision_skew().ns())),
                   Table::fmt_ms(double(e.tau_g_skew().ns())),
                   Table::fmt_ms(double((e.first_return() - RealTime::zero()).ns()))});
  }
  table.print();

  const auto m = evaluate_run(cluster.decisions(), cluster.proposals(),
                              cluster.correct_count(), params);
  std::printf("\nagreement violations: %u   validity violations: %u   "
              "unanimous: %u/%u\n",
              m.agreement_violations, m.validity_violations,
              m.unanimous_decides, m.executions);
  return evaluate_stack(cluster).pass ? 0 : 1;
}

int report_pulses(Cluster& cluster) {
  auto* head = head_node<PulseSyncNode>(cluster);
  if (head == nullptr) {
    std::printf("no correct nodes — nothing to report\n");
    return 0;
  }
  const Duration cycle = head->cycle();
  auto stats = evaluate_pulses(cluster.probe().pulses(),
                               cluster.correct_count(), cycle);
  const Duration bound = 3 * cluster.params().d();
  std::printf("pulses: %u complete, %u partial (cycle %.1f ms)\n",
              stats.complete_pulses, stats.partial_pulses, cycle.millis());
  if (!stats.skew.empty()) {
    std::printf("pulse skew: p50 %.3f ms, max %.3f ms (bound 3d = %.3f ms)\n",
                stats.skew.quantile(0.5) * 1e-6, stats.skew.max() * 1e-6,
                bound.millis());
  }
  if (stats.converged) {
    std::printf("first complete pulse at %.1f ms\n",
                stats.convergence.millis());
  }
  return evaluate_stack(cluster).pass ? 0 : 1;
}

int report_clocks(Cluster& cluster) {
  auto* head = head_node<ClockSyncNode>(cluster);
  if (head == nullptr) {
    std::printf("no correct nodes — nothing to report\n");
    return 0;
  }
  const Duration bound = head->precision_bound();
  const bool settled = clocks_settled(cluster);
  const Duration skew = clock_skew(cluster);
  std::printf("clock snaps recorded: %zu   settled: %s\n",
              cluster.probe().adjustments().size(), settled ? "yes" : "no");
  std::printf("final skew: %.0f us (precision bound %.0f us)\n",
              skew.micros(), bound.micros());
  return evaluate_stack(cluster).pass ? 0 : 1;
}

int report_log(Cluster& cluster) {
  const auto* head = head_node<ReplicatedLogNode>(cluster);
  if (head == nullptr) {
    std::printf("no correct nodes — nothing to report\n");
    return 0;
  }
  std::size_t committed_at_head = 0;
  for (const auto& c : cluster.probe().commits()) {
    if (cluster.node<ReplicatedLogNode>(c.node) == head) ++committed_at_head;
  }
  bool identical = true;
  for (NodeId i = 0; i < cluster.scenario().n; ++i) {
    const auto* node = cluster.node<ReplicatedLogNode>(i);
    if (node != nullptr && node->log() != head->log()) identical = false;
  }
  std::printf("committed per node: %zu   logs identical: %s\n",
              committed_at_head, identical ? "yes" : "NO");
  return evaluate_stack(cluster).pass ? 0 : 1;
}

int report_pipeline(Cluster& cluster) {
  auto* head = head_node<PipelinedLogNode>(cluster);
  if (head == nullptr) {
    std::printf("no correct nodes — nothing to report\n");
    return 0;
  }
  std::size_t delivered_at_head = 0;
  for (const auto& d : cluster.probe().deliveries()) {
    if (cluster.node<PipelinedLogNode>(d.node) == head && !d.entry.skipped) {
      ++delivered_at_head;
    }
  }
  // Settled records must agree wherever two correct nodes both settled a
  // slot (cursors may trail each other).
  bool identical = true;
  for (NodeId i = 0; i < cluster.scenario().n; ++i) {
    auto* node = cluster.node<PipelinedLogNode>(i);
    if (node == nullptr || node == head) continue;
    for (const auto& [slot, entry] : node->settled()) {
      const auto it = head->settled().find(slot);
      if (it != head->settled().end() && !(it->second == entry)) {
        identical = false;
      }
    }
  }
  std::printf("delivered per node: %zu   settled slots agree: %s\n",
              delivered_at_head, identical ? "yes" : "NO");
  return evaluate_stack(cluster).pass ? 0 : 1;
}

/// Single-run --json: one machine-readable document per run — the outcome,
/// the model point, engine + scheduler statistics (executor AND owner
/// imbalance views), duty-cycle migration costs, the per-chaos-window
/// stabilization rows, and the wire totals. Schema is flat on purpose:
/// every value also exists in the human report above it.
bool write_single_run_json(const std::string& path, Cluster& cluster,
                           bool pass,
                           const std::vector<WindowStabilization>& windows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const Scenario& sc = cluster.scenario();
  const NetworkStats net = cluster.world().net_stats();
  std::fprintf(out,
               "{\n"
               "  \"stack\": \"%s\",\n"
               "  \"adversary\": \"%s\",\n"
               "  \"n\": %u,\n"
               "  \"f\": %u,\n"
               "  \"seed\": %llu,\n"
               "  \"shards\": %u,\n"
               "  \"pass\": %s,\n"
               "  \"events\": %llu,\n",
               to_string(sc.stack), to_string(sc.adversary), sc.n, sc.f,
               static_cast<unsigned long long>(sc.seed), cluster.shards(),
               pass ? "true" : "false",
               static_cast<unsigned long long>(cluster.world().dispatched()));
  std::fprintf(out,
               "  \"auth\": \"%s\",\n"
               "  \"payload_bytes_per_proposal\": %u,\n"
               "  \"net\": {\"sent\": %llu, \"delivered\": %llu, "
               "\"dropped\": %llu, \"corrupted\": %llu, "
               "\"duplicated\": %llu, \"forged\": %llu, "
               "\"auth_rejected\": %llu, \"payload_bytes\": %llu},\n",
               to_string(sc.auth), sc.payload_bytes,
               static_cast<unsigned long long>(net.sent),
               static_cast<unsigned long long>(net.delivered),
               static_cast<unsigned long long>(net.dropped),
               static_cast<unsigned long long>(net.corrupted),
               static_cast<unsigned long long>(net.duplicated),
               static_cast<unsigned long long>(net.forged),
               static_cast<unsigned long long>(net.auth_rejected),
               static_cast<unsigned long long>(net.payload_bytes));
  WindowStats ss;
  bool have_sched = false;
  auto* duty = dynamic_cast<DutyWorld*>(&cluster.world());
  if (duty != nullptr) {
    ss = duty->sched_stats();
    have_sched = true;
  } else if (auto* sharded = dynamic_cast<ShardWorld*>(&cluster.world())) {
    ss = sharded->sched_stats();
    have_sched = true;
  }
  if (have_sched) {
    std::fprintf(
        out,
        "  \"sched_stats\": {\"windows\": %llu, \"measured_windows\": %llu, "
        "\"window_events\": %llu, \"steals\": %llu, "
        "\"stolen_events\": %llu, \"imbalance_mean\": %.6f, "
        "\"imbalance_max\": %.6f, \"owner_imbalance_mean\": %.6f, "
        "\"owner_imbalance_max\": %.6f},\n",
        static_cast<unsigned long long>(ss.windows),
        static_cast<unsigned long long>(ss.measured_windows),
        static_cast<unsigned long long>(ss.window_events),
        static_cast<unsigned long long>(ss.steals),
        static_cast<unsigned long long>(ss.stolen_events), ss.imbalance_mean(),
        ss.imbalance_max, ss.owner_imbalance_mean(), ss.owner_imbalance_max);
  }
  if (duty != nullptr) {
    std::fprintf(out,
                 "  \"migrations\": %zu,\n"
                 "  \"migration_ns\": %llu,\n"
                 "  \"segments\": %zu,\n",
                 duty->migrations(),
                 static_cast<unsigned long long>(duty->migration_ns()),
                 duty->segments());
  }
  std::fprintf(out, "  \"windows\": [");
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const WindowStabilization& win = windows[w];
    std::fprintf(out,
                 "%s\n    {\"index\": %zu, \"chaos_start_ms\": %.6f, "
                 "\"chaos_end_ms\": %.6f, \"recovery_ms\": ",
                 w ? "," : "", w,
                 double((win.chaos_start - RealTime::zero()).ns()) * 1e-6,
                 double((win.chaos_end - RealTime::zero()).ns()) * 1e-6);
    if (win.recovery) {
      std::fprintf(out, "%.6f", double(win.recovery->ns()) * 1e-6);
    } else {
      std::fprintf(out, "null");
    }
    std::fprintf(out, ", \"events\": %u, \"digest\": \"%016llx\"}", win.events,
                 static_cast<unsigned long long>(win.digest));
  }
  std::fprintf(out, "%s]\n}\n", windows.empty() ? "" : "\n  ");
  std::fclose(out);
  return true;
}

/// --sweep mode: expand the grid, pool-execute, report aggregates, and
/// optionally dump per-run CSV rows and an aggregate JSON document.
int run_sweep(const Scenario& base, const std::vector<std::uint32_t>& ns,
              const std::vector<std::uint32_t>& fs,
              const std::vector<AdversaryKind>& adversaries,
              std::uint32_t seeds, std::uint64_t seed0, std::uint32_t threads,
              std::uint32_t proposals, Duration run_for_override,
              const std::string& csv_path, const std::string& json_path) {
  SweepGrid grid;
  grid.base = base;
  grid.ns = ns;
  grid.fs = fs;
  grid.adversaries = adversaries;

  SweepSpec spec;
  spec.scenarios = grid.expand();
  if (spec.scenarios.empty()) {
    std::fprintf(stderr, "error: empty grid (no combination with n > 3f)\n");
    return 2;
  }
  for (Scenario& scenario : spec.scenarios) {
    const Duration shaped = shape_workload(scenario, proposals);
    scenario.run_for =
        run_for_override > Duration::zero() ? run_for_override : shaped;
  }
  spec.seeds_per_scenario = seeds;
  spec.seed0 = seed0;
  spec.threads = threads;

  SweepReport report = SweepRunner(spec).run();

  // Per-scenario aggregate table (runs are contiguous in grid order).
  Table table({"stack", "n", "f", "adversary", "runs", "pass", "p50 lat (ms)",
               "events", "events/run"});
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    SampleSet latency;
    std::uint64_t events = 0;
    std::uint32_t passed = 0;
    const SweepRun* first = nullptr;
    for (std::size_t i = s * seeds; i < (s + 1) * seeds; ++i) {
      const SweepRun& run = report.runs[i];
      if (first == nullptr) first = &run;
      if (run.pass) ++passed;
      events += run.events;
      for (const double l : run.latency_ns) latency.add(l);
    }
    char pass_cell[32];
    std::snprintf(pass_cell, sizeof pass_cell, "%u/%u", passed, seeds);
    table.add_row(
        {to_string(first->stack), std::to_string(first->n),
         std::to_string(first->f), to_string(first->adversary),
         std::to_string(seeds), pass_cell,
         latency.empty() ? "-" : Table::fmt_ms(latency.quantile(0.5)),
         Table::fmt_int(events), Table::fmt_int(events / seeds)});
  }
  table.print();
  std::printf("\nsweep: %zu scenarios x %u seeds = %zu runs on %u threads\n",
              spec.scenarios.size(), seeds, report.runs.size(),
              threads == 0 ? std::thread::hardware_concurrency() : threads);
  std::printf("passed %u / failed %u   %.2f Mevents/s   %.1f scenarios/s   "
              "wall %.2fs\n",
              report.passed, report.failed, report.events_per_sec / 1e6,
              report.scenarios_per_sec, report.wall_seconds);
  if (!report.latency.empty()) {
    std::printf("agreement latency: p50 %.3f ms   p90 %.3f ms   max %.3f ms\n",
                report.latency.quantile(0.5) * 1e-6,
                report.latency.quantile(0.9) * 1e-6,
                report.latency.max() * 1e-6);
  }
  if (report.chaos_windows > 0) {
    std::printf("chaos windows: %u observed, %u recovered", report.chaos_windows,
                report.recovered_windows);
    if (!report.recovery_ns.empty()) {
      std::printf("   recovery p50 %.3f ms   max %.3f ms",
                  report.recovery_ns.quantile(0.5) * 1e-6,
                  report.recovery_ns.max() * 1e-6);
    }
    std::printf("\n");
  }

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path,
                  {"stack", "n", "f", "adversary", "seed", "pass", "events",
                   "messages", "wall_s", "latency_p50_ms", "digest"});
    for (const SweepRun& run : report.runs) {
      SampleSet latency;
      for (const double l : run.latency_ns) latency.add(l);
      char digest[32];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(run.digest));
      csv.row({to_string(run.stack), std::to_string(run.n),
               std::to_string(run.f), to_string(run.adversary),
               std::to_string(run.seed), run.pass ? "1" : "0",
               std::to_string(run.events), std::to_string(run.messages),
               std::to_string(run.wall_seconds),
               std::to_string(latency.empty() ? 0.0
                                              : latency.quantile(0.5) * 1e-6),
               digest});
    }
  }
  if (!json_path.empty()) {
    if (std::FILE* out = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(out,
                   "{\n"
                   "  \"scenarios\": %zu,\n"
                   "  \"seeds_per_scenario\": %u,\n"
                   "  \"runs\": %zu,\n"
                   "  \"passed\": %u,\n"
                   "  \"failed\": %u,\n"
                   "  \"events\": %llu,\n"
                   "  \"messages\": %llu,\n"
                   "  \"wall_seconds\": %.6f,\n"
                   "  \"events_per_sec\": %.0f,\n"
                   "  \"scenarios_per_sec\": %.2f,\n"
                   "  \"latency_p50_ms\": %.6f,\n"
                   "  \"latency_p90_ms\": %.6f,\n"
                   "  \"chaos_windows\": %u,\n"
                   "  \"recovered_windows\": %u,\n"
                   "  \"recovery_p50_ms\": %.6f\n"
                   "}\n",
                   spec.scenarios.size(), seeds, report.runs.size(),
                   report.passed, report.failed,
                   static_cast<unsigned long long>(report.events),
                   static_cast<unsigned long long>(report.messages),
                   report.wall_seconds, report.events_per_sec,
                   report.scenarios_per_sec,
                   report.latency.empty()
                       ? 0.0
                       : report.latency.quantile(0.5) * 1e-6,
                   report.latency.empty()
                       ? 0.0
                       : report.latency.quantile(0.9) * 1e-6,
                   report.chaos_windows, report.recovered_windows,
                   report.recovery_ns.empty()
                       ? 0.0
                       : report.recovery_ns.quantile(0.5) * 1e-6);
      std::fclose(out);
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
    }
  }
  return report.all_passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Scenario sc;
  std::uint32_t byz = 0;
  std::uint32_t proposals = 1;
  bool wire_trace = false;
  std::string trace_path;
  std::string stats_json_path;
  bool f_set = false;
  std::int64_t run_ms = 0;
  Duration link_min = Duration::zero();
  bool sweep = false;
  std::vector<std::uint32_t> sweep_ns;
  std::vector<std::uint32_t> sweep_fs;
  std::vector<AdversaryKind> sweep_adversaries;
  std::uint32_t seeds = 4;
  std::uint32_t threads = 0;
  std::string csv_path;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--stack") {
      sc.stack = parse_stack(next(), argv[0]);
    } else if (arg == "--n") {
      sc.n = parse_u32(next(), argv[0], 1, 100'000);
    } else if (arg == "--f") {
      sc.f = parse_u32(next(), argv[0], 0, 100'000);
      f_set = true;
    } else if (arg == "--byz") {
      byz = parse_u32(next(), argv[0], 0, 100'000);
    } else if (arg == "--adversary") {
      sc.adversary = parse_adversary(next(), argv[0]);
    } else if (arg == "--seed") {
      sc.seed = parse_u64(next(), argv[0]);
    } else if (arg == "--delta-us") {
      sc.delta = microseconds(parse_u32(next(), argv[0], 1, 1'000'000'000));
    } else if (arg == "--scramble") {
      sc.transient_scramble = true;
    } else if (arg == "--chaos-ms") {
      sc.chaos_period = milliseconds(parse_u32(next(), argv[0], 0, 10'000'000));
    } else if (arg == "--chaos-count") {
      sc.chaos_count = parse_u32(next(), argv[0], 0, 1'000'000);
    } else if (arg == "--chaos-duty") {
      sc.chaos_duty = milliseconds(parse_u32(next(), argv[0], 0, 10'000'000));
    } else if (arg == "--proposals") {
      proposals = parse_u32(next(), argv[0], 0, 1'000'000);
    } else if (arg == "--run-ms") {
      run_ms = parse_u32(next(), argv[0], 1, 10'000'000);
    } else if (arg == "--depth") {
      sc.pipeline.depth = parse_u32(next(), argv[0], 1, 65'536);
    } else if (arg == "--auth") {
      sc.auth = parse_auth(next(), argv[0]);
    } else if (arg == "--payload-bytes") {
      sc.payload_bytes = parse_u32(next(), argv[0], 0, 1'048'576);
    } else if (arg == "--topology") {
      sc.topology = parse_topology(next(), argv[0]);
    } else if (arg == "--cluster-size") {
      sc.cluster_size = parse_u32(next(), argv[0], 1, 1'000'000);
    } else if (arg == "--gossip-fanout") {
      sc.gossip_fanout = parse_u32(next(), argv[0], 1, 1'000'000);
    } else if (arg == "--help") {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (arg == "--shards") {
      sc.shards = parse_u32(next(), argv[0], 0, 4096);
    } else if (arg == "--link-min-us") {
      link_min = microseconds(parse_u32(next(), argv[0], 1, 1'000'000'000));
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--stats-json") {
      stats_json_path = next();
    } else if (arg == "--wire-trace") {
      wire_trace = true;
    } else if (arg == "--verbose") {
      sc.log_level = LogLevel::kDebug;
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--sweep-n") {
      sweep_ns = parse_u32_list(next(), argv[0]);
    } else if (arg == "--sweep-f") {
      sweep_fs = parse_u32_list(next(), argv[0]);
    } else if (arg == "--sweep-adversary") {
      sweep_adversaries = parse_adversary_list(next(), argv[0]);
    } else if (arg == "--seeds") {
      seeds = parse_u32(next(), argv[0], 1, 1'000'000);
    } else if (arg == "--threads") {
      threads = parse_u32(next(), argv[0], 0, 4096);  // 0 ⇒ all cores
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--json") {
      json_path = next();
    } else {
      usage(argv[0]);
    }
  }

  if (link_min > Duration::zero()) {
    // A delay floor: same exponential-tail shape as the default, shifted up
    // by the positive minimum that gives the sharded engine its lookahead
    // (mean = min + δ/5 keeps the tail; a mean AT the floor would collapse
    // the distribution to a constant).
    if (link_min > sc.delta) {
      std::fprintf(stderr, "error: --link-min-us exceeds delta\n");
      return 2;
    }
    sc.link_delay = DelayModel::exp_truncated(
        link_min, std::min(link_min + sc.delta / 5, sc.delta), sc.delta);
  }

  // Catch malformed duty cycles here with a readable message — the Cluster
  // would refuse them anyway, but with a precondition abort.
  if (const char* err = sc.validate_chaos()) {
    std::fprintf(stderr, "error: %s\n", err);
    return 2;
  }
  // Same courtesy for malformed overlay knobs.
  if (const char* err = sc.validate_topology()) {
    std::fprintf(stderr, "error: %s\n", err);
    return 2;
  }

  if (sweep) {
    // In sweep mode f is a grid axis (--sweep-f, else a single --f point,
    // else derived as ⌊(n−1)/3⌋ per n) and the Byzantine set is always f
    // tail faults per cell — a separate --byz has no grid meaning.
    if (byz != 0) {
      std::fprintf(stderr, "error: --byz is not a sweep axis; use --sweep-f "
                           "(cells run f tail faults)\n");
      return 2;
    }
    if (wire_trace || !trace_path.empty() || !stats_json_path.empty()) {
      std::fprintf(stderr,
                   "error: --trace/--stats-json/--wire-trace are single-run "
                   "only (a sweep has no single run history); drop --sweep\n");
      return 2;
    }
    if (sweep_fs.empty() && f_set) sweep_fs = {sc.f};
    if (sc.shards > 1) {
      // Legal (every cell stays digest-identical) but the shard workers
      // multiply the sweep pool; say so instead of silently oversubscribing.
      std::fprintf(stderr,
                   "note: --sweep with --shards %u runs EVERY cell sharded; "
                   "shard threads multiply the sweep pool — consider "
                   "--threads 1 or dropping --shards\n",
                   sc.shards);
    }
    return run_sweep(sc, sweep_ns, sweep_fs, sweep_adversaries, seeds,
                     sc.seed, threads, proposals,
                     run_ms > 0 ? milliseconds(run_ms) : Duration::zero(),
                     csv_path, json_path);
  }
  if (sc.f == 0) sc.f = (sc.n - 1) / 3;
  if (sc.n <= 3 * sc.f) {
    std::fprintf(stderr, "error: need n > 3f (n=%u, f=%u)\n", sc.n, sc.f);
    return 2;
  }
  sc.with_tail_faults(byz);

  const Params params = sc.make_params();
  // Workload and default horizon are stack-shaped; the deployment path is
  // not.
  const Duration run_for = shape_workload(sc, proposals);
  sc.run_for = run_ms > 0 ? milliseconds(run_ms) : run_for;

  sc.trace = !trace_path.empty();

  Cluster cluster(sc);
  if (wire_trace && cluster.sharded()) {
    std::fprintf(stderr, "error: --wire-trace taps the serial engine's wire; "
                         "drop --shards (or use --trace PATH, which records "
                         "on every engine)\n");
    return 2;
  }
  TraceRecorder recorder;
  if (wire_trace) cluster.world().network().set_tap(recorder.tap());
  cluster.run();

  std::printf("stack: %s   model: n=%u f=%u (actual byz %u, %s), d=%.3fms, "
              "Phi=%.3fms, Dagr=%.3fms, Dstb=%.3fms, seed=%llu\n",
              to_string(sc.stack), sc.n, sc.f, byz, to_string(sc.adversary),
              params.d().millis(), params.phi().millis(),
              params.delta_agr().millis(), params.delta_stb().millis(),
              static_cast<unsigned long long>(sc.seed));
  const std::vector<ChaosWindow> chaos = sc.chaos_windows();
  if (cluster.sharded() && !chaos.empty()) {
    std::printf("engine: alternating (%zu chaos window(s) of %.1f ms on the "
                "serial engine, stabilization on %u shards, "
                "lookahead %.0f us)\n",
                chaos.size(), sc.chaos_period.millis(), cluster.shards(),
                cluster.world().config().lookahead().micros());
  } else if (cluster.sharded()) {
    std::printf("engine: sharded (%u shards, lookahead %.0f us)\n",
                cluster.shards(),
                cluster.world().config().lookahead().micros());
  } else {
    std::printf("engine: serial%s\n",
                sc.shards > 1 ? " (no lookahead; --shards needs "
                                "--link-min-us)"
                              : "");
  }
  if (cluster.sharded()) {
    // Scheduler observability: how balanced the windows ran and how much
    // stealing it took. Alternating runs also show the engine-switch
    // overhead and how many sharded segments ran.
    WindowStats ss;
    if (auto* duty = dynamic_cast<DutyWorld*>(&cluster.world())) {
      ss = duty->sched_stats();
      std::printf("sched: migrations %zu (%.2f ms switch overhead), "
                  "%zu sharded segments\n",
                  duty->migrations(), double(duty->migration_ns()) * 1e-6,
                  duty->segments());
    } else if (auto* sharded = dynamic_cast<ShardWorld*>(&cluster.world())) {
      ss = sharded->sched_stats();
    }
    std::printf("sched: %llu windows, imbalance mean %.2f max %.2f, "
                "steals %llu (%llu events stolen)\n",
                static_cast<unsigned long long>(ss.windows),
                ss.imbalance_mean(), ss.imbalance_max,
                static_cast<unsigned long long>(ss.steals),
                static_cast<unsigned long long>(ss.stolen_events));
  }
  std::printf("\n");

  int exit_code = 0;
  switch (sc.stack) {
    case StackKind::kAgree:
    case StackKind::kBaselineTps:
      exit_code = report_decisions(cluster);
      break;
    case StackKind::kPulse:
      exit_code = report_pulses(cluster);
      break;
    case StackKind::kClockSync:
      exit_code = report_clocks(cluster);
      break;
    case StackKind::kReplicatedLog:
      exit_code = report_log(cluster);
      break;
    case StackKind::kPipelinedLog:
      exit_code = report_pipeline(cluster);
      break;
  }

  // Per-window stabilization report: the paper's claim is re-convergence
  // after EVERY burst, so each window gets its own recovery line.
  const auto windows = window_stabilization(cluster.scenario(), cluster.probe());
  if (!windows.empty()) {
    std::printf("\nstabilization per chaos window:\n");
    Table wt({"window", "chaos (ms)", "recovery (ms)", "events", "digest"});
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const WindowStabilization& win = windows[w];
      char span[48];
      std::snprintf(span, sizeof span, "[%.1f, %.1f)",
                    double((win.chaos_start - RealTime::zero()).ns()) * 1e-6,
                    double((win.chaos_end - RealTime::zero()).ns()) * 1e-6);
      char digest[32];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(win.digest));
      wt.add_row({std::to_string(w), span,
                  win.recovery ? Table::fmt_ms(double(win.recovery->ns()))
                               : "no recovery",
                  std::to_string(win.events), digest});
    }
    wt.print();
  }

  const auto stats = cluster.world().net_stats();
  std::printf("network: %llu sent, %llu delivered, %llu dropped, %llu forged\n",
              static_cast<unsigned long long>(stats.sent),
              static_cast<unsigned long long>(stats.delivered),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.forged));
  if (sc.auth != AuthKind::kNull || sc.payload_bytes > 0) {
    std::printf("auth: %s, %llu rejected   payload: %u B/proposal, "
                "%llu B admitted, %llu pool slots live\n",
                to_string(sc.auth),
                static_cast<unsigned long long>(stats.auth_rejected),
                sc.payload_bytes,
                static_cast<unsigned long long>(stats.payload_bytes),
                static_cast<unsigned long long>(payload_pool().live()));
  }

  if (!trace_path.empty()) {
    if (TraceWriter::write_json(*cluster.tracer(), trace_path)) {
      std::printf("trace: %llu records (%llu dropped) -> %s\n",
                  static_cast<unsigned long long>(cluster.tracer()->recorded()),
                  static_cast<unsigned long long>(cluster.tracer()->dropped()),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", trace_path.c_str());
    }
  }
  if (!stats_json_path.empty()) {
    if (!collect_run_stats(cluster).write_json(stats_json_path)) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   stats_json_path.c_str());
    }
  }
  if (!json_path.empty() &&
      !write_single_run_json(json_path, cluster, exit_code == 0, windows)) {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
  }

  if (wire_trace) {
    std::printf("\nwire trace (%zu events%s):\n", recorder.events().size(),
                recorder.dropped_records() ? ", truncated" : "");
    for (const auto& event : recorder.events()) {
      std::printf("%s\n", to_string(event).c_str());
    }
  }
  return exit_code;
}
