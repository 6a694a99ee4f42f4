#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "harness/metrics.hpp"

namespace perfbench {

using namespace ssbft;

namespace {

/// splitmix64: derives independent scenario seeds from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// End of the last chaos window (zero without chaos).
Duration last_chaos_end(const Scenario& sc) {
  const auto windows = sc.chaos_windows();
  return windows.empty() ? Duration::zero()
                         : windows.back().end - RealTime::zero();
}

std::vector<NodeId> correct_nodes(const Scenario& sc) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < sc.n; ++id) {
    if (!sc.is_byzantine(id)) out.push_back(id);
  }
  return out;
}

Scenario base(StackKind stack, std::uint32_t n, std::uint32_t f,
              std::uint64_t seed) {
  Scenario sc;
  sc.stack = stack;
  sc.n = n;
  sc.f = f;
  sc.with_tail_faults(f);
  sc.seed = seed;
  return sc;
}

// --- agree_flat --------------------------------------------------------------
// One proposal by a seed-chosen correct General on n = 32 with f = 10 silent
// Byzantine tail nodes: the protocol core, the event queue and flat fan-out
// on one thread, with no auth, payloads, shards, topology or chaos.
Scenario agree_flat(std::uint64_t seed, bool tiny) {
  Scenario sc = tiny ? base(StackKind::kAgree, 7, 2, seed)
                     : base(StackKind::kAgree, 32, 10, seed);
  const auto correct = correct_nodes(sc);
  const NodeId general = correct[mix(seed, 1) % correct.size()];
  sc.with_proposal(milliseconds(1), general, 1000 + mix(seed, 2) % 1000);
  const Params p = sc.make_params();
  sc.run_for = milliseconds(1) + p.delta_agr() + 10 * p.d();
  return sc;
}

// --- log_hmac_chaos ----------------------------------------------------------
// Pipelined log, n = 10 with 3 noise nodes, HMAC-tagged traffic carrying
// 4 KiB bodies, forged in-flight messages at t = 0 and three chaos windows;
// one submit inside each window sends bodies through the corrupter and the
// reject path. Then, ∆stb after the last window, a train of submits
// round-robin over the correct nodes (the CLI's log workload shape) — the
// judged ops.
Scenario log_hmac_chaos(std::uint64_t seed, bool tiny) {
  Scenario sc = base(StackKind::kPipelinedLog, tiny ? 7 : 10, tiny ? 2 : 3,
                     seed);
  sc.adversary = AdversaryKind::kNoise;
  sc.auth = AuthKind::kHmac;
  sc.payload_bytes = 4096;
  // Forged in-flight messages at t = 0, but intact node state: a
  // scrambled log does not re-converge within agreement's ∆stb, so a
  // scrambled state would leave the judged submits without a guarantee.
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 16;
  sc.transient.scramble_state = false;
  sc.chaos_period = milliseconds(2);
  sc.chaos_duty = milliseconds(30);
  sc.chaos_count = 3;
  const Params p = sc.make_params();
  const auto correct = correct_nodes(sc);
  const std::uint32_t offset = std::uint32_t(mix(seed, 3) % correct.size());
  Value value = 100;
  for (std::uint32_t w = 0; w < 3; ++w) {
    sc.with_proposal(milliseconds(1) + w * sc.chaos_duty,
                     correct[(w + offset) % correct.size()], value++);
  }
  const Duration judged_from = stable_from(sc);
  const std::uint32_t judged = tiny ? 2 : 8;
  for (std::uint32_t k = 0; k < judged; ++k) {
    sc.with_proposal(judged_from, correct[(k + offset) % correct.size()],
                     value++);
  }
  // Slots rotate over all n proposers and a Byzantine proposer's slot is
  // skipped only after its watchdog: two rotations bound the wait.
  sc.run_for = judged_from +
               2 * sc.n * (p.delta_0() + 2 * p.delta_agr() + 13 * p.d());
  return sc;
}

// --- agree_chaos_s4 ----------------------------------------------------------
// Agreement on n = 48 over 4 shards with a link-delay floor: a scrambled
// start inside one chaos window runs serial, the engine migrates to the
// windowed sharded engine, and a train of proposals by distinct Generals
// is judged after ∆stb.
Scenario agree_chaos_s4(std::uint64_t seed, bool tiny) {
  Scenario sc = tiny ? base(StackKind::kAgree, 10, 3, seed)
                     : base(StackKind::kAgree, 48, 15, seed);
  sc.shards = 4;
  sc.link_delay =
      DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 16;
  sc.chaos_period = milliseconds(2);
  const Params p = sc.make_params();
  const auto correct = correct_nodes(sc);
  const Duration judged_from = stable_from(sc);
  const std::uint32_t proposals = 2;
  const std::uint32_t offset = std::uint32_t(mix(seed, 4) % correct.size());
  for (std::uint32_t k = 0; k < proposals; ++k) {
    sc.with_proposal(judged_from + k * milliseconds(1),
                     correct[(k + offset) % correct.size()], 500 + k);
  }
  sc.run_for = judged_from + proposals * milliseconds(1) + p.delta_agr() +
               10 * p.d();
  return sc;
}

// --- sweep_mixed_t4 ----------------------------------------------------------
/// Appends the stack-shaped workload after the scenario's stabilization
/// bound and sets the horizon (the same shapes the CLI uses).
void shape(Scenario& sc) {
  const Params p = sc.make_params();
  const Duration start = stable_from(sc);
  const auto correct = correct_nodes(sc);
  switch (sc.stack) {
    case StackKind::kAgree:
      for (std::uint32_t i = 0; i < 2; ++i) {
        sc.with_proposal(start + milliseconds(1) + i * (p.delta_0() + 5 * p.d()),
                         correct[i % correct.size()], 100 + i);
      }
      sc.run_for = start + 2 * (p.delta_0() + 5 * p.d()) + p.delta_agr() +
                   10 * p.d();
      break;
    case StackKind::kBaselineTps:
      sc.tps.general = correct.front();
      sc.tps.anchor = start + milliseconds(5);
      sc.with_proposal(start + milliseconds(1), sc.tps.general, 100);
      sc.run_for = start + milliseconds(120);
      break;
    case StackKind::kReplicatedLog:
    case StackKind::kPipelinedLog:
      for (std::uint32_t i = 0; i < 3; ++i) {
        sc.with_proposal(start, correct[i % correct.size()], 100 + i);
      }
      // Slots rotate over all n proposers and a Byzantine proposer's slot
      // is skipped only after its watchdog: one full rotation bounds the
      // wait for any submit.
      sc.run_for = start + sc.n * (p.delta_0() + 2 * p.delta_agr() + 13 * p.d());
      break;
    case StackKind::kPulse:
    case StackKind::kClockSync:
      // Four pulse cycles (one cycle is 2(∆0 + ∆agr)) past stabilization.
      sc.run_for = start + 4 * 2 * (p.delta_0() + p.delta_agr());
      break;
  }
}

/// 6 stacks × n ∈ {7, 10} × 4 variants: flat with noise, a relay overlay
/// (federated where the cluster size divides n, gossip otherwise), gossip
/// under a quorum-faking adversary, and — except for the time-driven TPS
/// baseline, whose synchrony assumption chaos breaks — a chaos window
/// (which degrades any overlay to flat), over a scrambled start for
/// agreement.
std::vector<Scenario> mixed_grid(std::uint64_t seed, std::uint64_t grid,
                                 bool tiny) {
  const StackKind stacks[] = {StackKind::kAgree,         StackKind::kPulse,
                              StackKind::kClockSync,     StackKind::kReplicatedLog,
                              StackKind::kPipelinedLog,  StackKind::kBaselineTps};
  std::vector<Scenario> out;
  for (const StackKind stack : stacks) {
    for (const std::uint32_t n : {7u, 10u}) {
      if (tiny && n == 10) continue;
      for (std::uint32_t variant = 0; variant < 4; ++variant) {
        if (tiny && variant == 2) continue;
        // One seed for the whole grid: SweepRunner runs every cell under
        // its spec's seed0.
        Scenario sc = base(stack, n, (n - 1) / 3, mix(seed, grid));
        // Noise every 5 ms keeps the Byzantine load without letting it
        // dominate the cell's cost.
        sc.adversary_period = milliseconds(5);
        switch (variant) {
          case 0:
            sc.adversary = AdversaryKind::kNoise;
            break;
          case 1:
            // Relayed copies cross up to three hops: short links keep every
            // path inside the model's d, so the paper's bounds still apply.
            sc.link_delay = DelayModel::uniform(sc.delta / 20, sc.delta / 4);
            if (n % 5 == 0) {
              sc.topology = Topology::kFederated;
              sc.cluster_size = 5;
            } else {
              sc.topology = Topology::kGossip;
              sc.gossip_fanout = 2;
            }
            break;
          case 2:
            sc.link_delay = DelayModel::uniform(sc.delta / 20, sc.delta / 4);
            sc.topology = Topology::kGossip;
            sc.gossip_fanout = 3;
            sc.adversary = AdversaryKind::kQuorumFaker;
            break;
          case 3:
            if (stack == StackKind::kBaselineTps) {
              sc.adversary = AdversaryKind::kSilent;
            } else {
              sc.adversary = AdversaryKind::kNoise;
              sc.chaos_period = milliseconds(2);
              // ∆stb bounds agreement's recovery from a scrambled state;
              // the layers above converge on their own, longer clocks, so
              // they get the chaos window only.
              sc.transient_scramble = stack == StackKind::kAgree;
              sc.transient.spurious_per_node = 8;
            }
            break;
        }
        shape(sc);
        out.push_back(sc);
      }
    }
  }
  return out;
}

/// (node, real time) of every record on the stack's primary stream.
std::vector<std::pair<NodeId, RealTime>> primary_stream(const Cluster& cluster) {
  const RecordingProbe& probe = cluster.probe();
  std::vector<std::pair<NodeId, RealTime>> out;
  switch (cluster.scenario().stack) {
    case StackKind::kAgree:
    case StackKind::kBaselineTps:
      for (const auto& d : probe.decisions()) out.emplace_back(d.decision.node, d.real_at);
      break;
    case StackKind::kPulse:
      for (const auto& p : probe.pulses()) out.emplace_back(p.node, p.real_at);
      break;
    case StackKind::kClockSync:
      for (const auto& a : probe.adjustments()) out.emplace_back(a.node, a.real_at);
      break;
    case StackKind::kReplicatedLog:
      for (const auto& c : probe.commits()) out.emplace_back(c.node, c.real_at);
      break;
    case StackKind::kPipelinedLog:
      for (const auto& d : probe.deliveries()) out.emplace_back(d.node, d.real_at);
      break;
  }
  return out;
}

/// Per correct node, the time from `from` to its first primary record in
/// [from, to) — one recovery sample per node that produced one.
void node_recoveries(const Cluster& cluster, RealTime from, RealTime to,
                     std::vector<double>& out) {
  std::map<NodeId, RealTime> first;
  for (const auto& [node, at] : primary_stream(cluster)) {
    if (at < from || at >= to || cluster.scenario().is_byzantine(node)) continue;
    auto [it, fresh] = first.emplace(node, at);
    if (!fresh && at < it->second) it->second = at;
  }
  for (const auto& [node, at] : first) out.push_back(double((at - from).ns()));
}

struct OpCheck {
  bool ok = true;
  std::string why;
  void fail(std::string reason) {
    if (ok) why = std::move(reason);
    ok = false;
  }
};

/// Agreement-style op: every correct node decides the General's value
/// (Validity), nobody decides another (Agreement), within ∆agr, with the
/// decision and τG skews inside 3d and 6d.
OpCheck judge_decision(Cluster& cluster, const Scenario::Proposal& prop,
                       std::vector<double>& latency_ns) {
  OpCheck check;
  const Params& p = cluster.params();
  const bool paper_bounds = cluster.scenario().stack == StackKind::kAgree;
  std::optional<RealTime> admitted;
  for (const auto& tp : cluster.proposals()) {
    if (tp.general == prop.general && tp.value == prop.value &&
        tp.status == ProposeStatus::kSent) {
      admitted = tp.real_at;
    }
  }
  if (!admitted) {
    check.fail("proposal not admitted");
    return check;
  }
  std::optional<GeneralId> instance;
  for (const auto& d : cluster.decisions()) {
    if (d.decision.general.node == prop.general &&
        d.decision.value == prop.value && d.real_at >= *admitted) {
      instance = d.decision.general;
      break;
    }
  }
  if (!instance) {
    check.fail("no decision");
    return check;
  }
  std::set<NodeId> deciders;
  RealTime first = RealTime::max(), last = RealTime::min();
  RealTime tau_lo = RealTime::max(), tau_hi = RealTime::min();
  for (const auto& d : cluster.decisions()) {
    if (d.decision.general != *instance || d.real_at < *admitted) continue;
    if (!d.decision.decided()) {
      check.fail("abort on a correct General's value");
      continue;
    }
    if (d.decision.value != prop.value) {
      check.fail("conflicting decision");
      continue;
    }
    deciders.insert(d.decision.node);
    first = std::min(first, d.real_at);
    last = std::max(last, d.real_at);
    tau_lo = std::min(tau_lo, d.tau_g_real);
    tau_hi = std::max(tau_hi, d.tau_g_real);
    const Duration latency = d.real_at - *admitted;
    latency_ns.push_back(double(latency.ns()));
    if (paper_bounds && latency > p.delta_agr()) check.fail("decision after ∆agr");
  }
  if (deciders.size() != cluster.correct_count()) {
    check.fail("not every correct node decided");
  }
  if (paper_bounds && !deciders.empty()) {
    if (last - first > 3 * p.d()) check.fail("decision skew above 3d");
    if (tau_hi - tau_lo > 6 * p.d()) check.fail("tauG skew above 6d");
  }
  return check;
}

/// Log op: every correct node commits the command once, in one common
/// slot, with one common body checksum.
template <class Record, class EntryOf>
OpCheck judge_commit(Cluster& cluster, const Scenario::Proposal& prop,
                     const std::vector<Record>& stream, EntryOf entry_of,
                     std::vector<double>& latency_ns) {
  OpCheck check;
  std::map<NodeId, int> per_node;
  std::optional<std::uint64_t> slot, crc;
  for (const auto& r : stream) {
    const auto& e = entry_of(r);
    if (e.command != prop.value || r.real_at < RealTime::zero() + prop.at) {
      continue;
    }
    if (++per_node[r.node] > 1) check.fail("command committed twice");
    if (slot && (*slot != e.slot || *crc != e.payload_crc)) {
      check.fail("slot or body differs between nodes");
    }
    slot = e.slot;
    crc = e.payload_crc;
    latency_ns.push_back(double((r.real_at - (RealTime::zero() + prop.at)).ns()));
  }
  if (per_node.size() != cluster.correct_count()) {
    check.fail("committed at " + std::to_string(per_node.size()) + " of " +
               std::to_string(cluster.correct_count()) + " correct nodes");
  }
  return check;
}

}  // namespace

Duration stable_from(const Scenario& sc) {
  const bool disturbed = sc.transient_scramble || !sc.chaos_windows().empty();
  return disturbed ? last_chaos_end(sc) + sc.make_params().delta_stb()
                   : Duration::zero();
}

std::optional<Kind> parse_kind(const std::string& name) {
  for (const Kind k : {Kind::kAgreeFlat, Kind::kLogHmacChaos,
                       Kind::kAgreeChaosS4, Kind::kSweepMixedT4}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kAgreeFlat: return "agree_flat";
    case Kind::kLogHmacChaos: return "log_hmac_chaos";
    case Kind::kAgreeChaosS4: return "agree_chaos_s4";
    case Kind::kSweepMixedT4: return "sweep_mixed_t4";
  }
  return "?";
}

std::uint32_t Workload::ops_per_unit() const {
  if (sweep()) return std::uint32_t(grid.size());
  return std::max<std::uint32_t>(1, std::uint32_t(unit.proposals.size()));
}

Workload make_workload(Kind kind, std::uint64_t seed, bool tiny) {
  Workload w;
  w.kind = kind;
  // Distinct units pooled for the simulated metrics: enough that the p99
  // latency has at least ten samples beyond it.
  std::uint32_t units = 1;
  Scenario (*make)(std::uint64_t, bool) = nullptr;
  switch (kind) {
    case Kind::kAgreeFlat:
      make = agree_flat;
      units = tiny ? 2 : 48;
      break;
    case Kind::kLogHmacChaos:
      make = log_hmac_chaos;
      units = tiny ? 2 : 18;
      break;
    case Kind::kAgreeChaosS4:
      make = agree_chaos_s4;
      units = tiny ? 2 : 16;
      break;
    case Kind::kSweepMixedT4:
      w.sweep_threads = 4;
      for (std::uint64_t g = 0; g < (tiny ? 1u : 4u); ++g) {
        w.sim_units.push_back(mixed_grid(seed, g, tiny));
      }
      w.grid = w.sim_units.front();
      return w;
  }
  for (std::uint32_t i = 0; i < units; ++i) {
    w.sim_units.push_back({make(mix(seed, 100 + i), tiny)});
  }
  w.unit = w.sim_units.front().front();
  return w;
}

Scenario serial_twin(Scenario sc) {
  sc.shards = 0;
  return sc;
}

Verdict judge(Cluster& cluster) {
  Verdict v;
  const Scenario& sc = cluster.scenario();
  const Params& p = cluster.params();
  const StackOutcome outcome = evaluate_stack(cluster);
  const NetworkStats net = cluster.world().net_stats();
  v.digest = outcome.digest;
  v.stack_pass = outcome.pass;
  v.events = cluster.world().dispatched();
  v.sent = net.sent;
  v.wire_bytes = net.sent * kHeaderBytes + net.payload_bytes;

  // Re-convergence within ∆stb after every chaos window whose recovery
  // span is long enough for the guarantee to apply. Recovery samples are
  // per correct node: from a window's end to the node's first output; a
  // run without chaos samples its cold start (from t = 0).
  bool recovered = true;
  const auto windows = window_stabilization(sc, cluster.probe());
  const RealTime horizon = RealTime::zero() + sc.run_for;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const RealTime span_end =
        w + 1 < windows.size() ? windows[w + 1].chaos_start : horizon;
    node_recoveries(cluster, windows[w].chaos_end, span_end, v.recovery_ns);
    // Workload-driven stacks produce output only when the workload asks:
    // their re-convergence is judged by the ops injected after ∆stb.
    // Self-clocking stacks must produce it on their own within ∆stb.
    if (!sc.proposals.empty() ||
        span_end - windows[w].chaos_end < p.delta_stb()) {
      continue;
    }
    if (!windows[w].recovery || *windows[w].recovery > p.delta_stb()) {
      recovered = false;
      v.failures.push_back("no recovery within ∆stb after chaos window " +
                           std::to_string(w));
    }
  }
  if (windows.empty()) node_recoveries(cluster, RealTime::zero(), horizon, v.recovery_ns);

  const Duration judged_from = stable_from(sc);
  for (const auto& prop : sc.proposals) {
    ++v.ops;
    if (prop.at < judged_from || sc.is_byzantine(prop.general)) continue;
    ++v.judged;
    OpCheck check;
    switch (sc.stack) {
      case StackKind::kAgree:
      case StackKind::kBaselineTps:
        check = judge_decision(cluster, prop, v.latency_ns);
        break;
      case StackKind::kReplicatedLog:
        check = judge_commit(cluster, prop, cluster.probe().commits(),
                             [](const TimedCommit& c) -> const CommittedEntry& {
                               return c.entry;
                             },
                             v.latency_ns);
        break;
      case StackKind::kPipelinedLog: {
        std::vector<TimedDelivery> delivered;
        for (const auto& d : cluster.probe().deliveries()) {
          if (!d.entry.skipped) delivered.push_back(d);
        }
        check = judge_commit(cluster, prop, delivered,
                             [](const TimedDelivery& d) -> const PipelinedEntry& {
                               return d.entry;
                             },
                             v.latency_ns);
        break;
      }
      case StackKind::kPulse:
      case StackKind::kClockSync:
        break;
    }
    if (check.ok && recovered) {
      ++v.passed;
    } else if (!check.ok) {
      v.failures.push_back("op value " + std::to_string(prop.value) + ": " +
                           check.why);
    }
  }
  if (sc.proposals.empty()) {
    // Self-clocking stacks: the unit is one op, judged by the stack's own
    // guarantee (pulse skew, clock precision).
    v.ops = v.judged = 1;
    v.passed = outcome.pass && recovered ? 1 : 0;
    if (!outcome.pass) v.failures.push_back("stack guarantee failed");
  }
  return v;
}

}  // namespace perfbench
