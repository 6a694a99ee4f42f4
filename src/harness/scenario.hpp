// Declarative experiment scenarios.
//
// A Scenario describes one simulated deployment: which protocol stack runs
// on the correct nodes, cluster size, fault mix, delay distribution,
// workload (who proposes what, when), and whether the run starts from a
// transient-fault state. The Cluster (runner.hpp) turns it into a World via
// the StackRegistry; every bench, example, tool, and integration test is
// phrased this way so experiments are reproducible from (Scenario, seed)
// alone — for any layer of the paper's construction, not just agreement.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "app/log_types.hpp"
#include "clocksync/clock_sync_types.hpp"
#include "core/params.hpp"
#include "pulse/pulse_types.hpp"
#include "sim/delay_model.hpp"
#include "sim/fault_injector.hpp"
#include "sim/network.hpp"  // ChaosWindow
#include "sim/topology.hpp"
#include "sim/world.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ssbft {

enum class AdversaryKind {
  kSilent,
  kNoise,
  kEquivocatingGeneral,
  kStaggeredGeneral,
  kSpamGeneral,
  kReplay,
  kQuorumFaker,
};

/// Number of AdversaryKind enumerators (keep in sync; test_enums checks
/// that to_string covers exactly this many).
inline constexpr std::uint32_t kAdversaryKindCount = 7;

[[nodiscard]] const char* to_string(AdversaryKind kind);

/// Which protocol stack the correct nodes run — the paper's layering, each
/// level deployable through the same Scenario → Cluster path:
///   kAgree          ss-Byz-Agree (§3), the base agreement primitive
///   kPulse          pulse synchronization atop agreement (ref [6])
///   kClockSync      self-stabilizing clock sync atop pulses (ref [5])
///   kReplicatedLog  sequential state-machine replication
///   kPipelinedLog   footnote-9 concurrent-instance SMR
///   kBaselineTps    TPS'87 time-driven baseline (synchronized start)
enum class StackKind {
  kAgree,
  kPulse,
  kClockSync,
  kReplicatedLog,
  kPipelinedLog,
  kBaselineTps,
};

/// Number of StackKind enumerators (see kAdversaryKindCount).
inline constexpr std::uint32_t kStackKindCount = 6;

[[nodiscard]] const char* to_string(StackKind kind);

struct Scenario {
  // --- stack -------------------------------------------------------------
  /// Which protocol runs on the correct nodes. Byzantine nodes always run
  /// the configured adversary, whatever the stack.
  StackKind stack = StackKind::kAgree;
  /// Per-stack configuration, consulted by the matching factory only.
  PulseConfig pulse{};          // kPulse
  ClockSyncConfig clock_sync{}; // kClockSync
  LogConfig log{};              // kReplicatedLog
  PipelineConfig pipeline{};    // kPipelinedLog
  struct TpsConfig {
    NodeId general = 0;  // the baseline's designated General
    /// Common phase-0 local time (the synchrony assumption's anchor).
    Duration anchor = milliseconds(5);
    Duration phase_len = Duration::zero();  // zero ⇒ Φb = 2d
  } tps{};                      // kBaselineTps

  // --- topology / model -------------------------------------------------
  std::uint32_t n = 7;
  std::uint32_t f = 2;  // design bound; actual faults = byz_nodes.size()
  Duration delta = milliseconds(1);
  Duration pi = microseconds(50);
  double rho = 1e-4;
  /// Actual link-delay distribution (≤ δ). Unset ⇒ uniform [δ/5, δ].
  std::optional<DelayModel> link_delay;
  /// Spread of initial clock offsets. Unset ⇒ the World default, except
  /// kBaselineTps, whose synchrony assumption forces zero offset.
  std::optional<Duration> max_clock_offset;

  // --- dissemination overlay (sim/topology.hpp) ---------------------------
  /// Broadcast fan-out shape: flat all-to-all (the default, byte-identical
  /// to the pre-topology engine), federated two-level clusters, or a gossip
  /// relay tree. Non-flat topologies DEGRADE TO FLAT when the scenario has
  /// a chaos schedule (relay subtrees must not silently vanish to chaos
  /// drops) — degrade, never wrongness. See validate_topology().
  Topology topology = Topology::kFlat;
  /// kFederated: nodes per contiguous cluster; must be ≥ 1 and divide n.
  std::uint32_t cluster_size = 0;
  /// kGossip: relay-tree arity; must be ≥ 1.
  std::uint32_t gossip_fanout = 0;

  /// nullptr when the topology knobs are well-formed; otherwise a static
  /// message naming the violation. Cluster::build refuses malformed knobs
  /// up front, mirroring validate_chaos.
  [[nodiscard]] const char* validate_topology() const;
  /// The overlay the engines actually run: the configured topology, except
  /// any non-flat choice degrades to flat when chaos windows exist.
  /// Degenerate-but-sound knobs degrade further inside
  /// TopologyConfig::resolved at engine construction.
  [[nodiscard]] TopologyConfig effective_topology() const;

  // --- faults ------------------------------------------------------------
  std::vector<NodeId> byz_nodes;  // which nodes are Byzantine (may be empty)
  AdversaryKind adversary = AdversaryKind::kSilent;
  /// Adversary knobs (used by the kinds that need them).
  Value equivocate_v0 = 1, equivocate_v1 = 2;
  std::uint32_t equivocate_split = 0;  // 0 ⇒ n/2
  Duration adversary_start = milliseconds(2);
  Duration adversary_period = milliseconds(1);
  Duration stagger_span = milliseconds(4);

  // --- initial state / recurring chaos -----------------------------------
  bool transient_scramble = false;
  TransientFaultConfig transient{};
  /// Width of each chaos window: the network behaves arbitrarily for this
  /// long from the window's start. Zero ⇒ no chaos. With the defaults
  /// below this is the classic one-shot transient [0, ι0).
  Duration chaos_period = Duration::zero();
  /// Chaos duty cycle: the first window starts here (default: t=0)...
  Duration chaos_first_start = Duration::zero();
  /// ...windows repeat with this start-to-start stride (zero ⇒ back-to-
  /// back, i.e. the window width — only meaningful with chaos_count > 1;
  /// any other value must be ≥ chaos_period or the windows would overlap,
  /// which validate_chaos rejects)...
  Duration chaos_duty = Duration::zero();
  /// ...for this many windows.
  std::uint32_t chaos_count = 1;

  /// nullptr when the chaos duty cycle is well-formed; otherwise a static
  /// message naming the violation. Cluster::build refuses invalid cycles
  /// up front — a malformed schedule must never silently run.
  [[nodiscard]] const char* validate_chaos() const;
  /// The normalized chaos schedule: absolute windows, sorted, contiguous
  /// ones merged, windows starting at or past run_for dropped. Degenerate
  /// inputs (zero width, zero count, first start past the horizon) degrade
  /// toward an EMPTY schedule — never-faulty network — never to wrongness.
  [[nodiscard]] std::vector<ChaosWindow> chaos_windows() const;

  // --- ablation knobs ------------------------------------------------------
  /// Override Block R's freshness window (zero ⇒ default 5d; Fig. 1's
  /// literal value is 4d — see bench_ablation).
  Duration r1_window = Duration::zero();
  /// Disable the cleanup/decay blocks (removes self-stabilization).
  bool cleanup_enabled = true;
  /// Message-count thresholds (footnote 7): kOptimal = n−f/n−2f,
  /// kMajority = ⌊(n+f)/2⌋+1 / f+1.
  QuorumPolicy quorum_policy = QuorumPolicy::kOptimal;

  // --- wire authentication / payloads --------------------------------------
  /// Message-authentication scheme (sim/auth.hpp). kNull keeps the legacy
  /// abstract-authentication model; kHmac tags every send with a keyed
  /// deterministic MAC and discards tag mismatches at delivery, so chaos
  /// corruption and fault-injector forgeries become measurably rejectable
  /// (net_stats().auth_rejected).
  AuthKind auth = AuthKind::kNull;
  /// Attach a deterministic application payload of this many bytes to each
  /// workload injection (0 ⇒ legacy bare commands). Bodies ride the shared
  /// payload pool end to end; the log stacks hash them into the digest.
  std::uint32_t payload_bytes = 0;

  // --- workload ----------------------------------------------------------
  /// One workload injection. Meaning is stack-dependent: a General-role
  /// propose() for kAgree/kBaselineTps, a client submit() for the log
  /// stacks; the self-clocking stacks (kPulse, kClockSync) ignore it.
  struct Proposal {
    Duration at{};        // real-time offset from t=0
    NodeId general = 0;   // must be a correct node to take effect
    Value value = 1;
  };
  std::vector<Proposal> proposals;

  // --- run control ---------------------------------------------------------
  Duration run_for = milliseconds(200);
  std::uint64_t seed = 1;
  LogLevel log_level = LogLevel::kWarn;
  /// Worker shards for the windowed engine (0/1 ⇒ serial engine).
  /// Requires a link_delay with a positive minimum to take effect (the
  /// lookahead); results are bit-identical to serial for any value. With a
  /// chaos schedule the deployment alternates: each chaos window runs on
  /// the serial engine and each stabilization stretch on the windowed
  /// engine, with a full state migration at every boundary
  /// (sim/duty_world.hpp) — still bit-identical to an all-serial run.
  std::uint32_t shards = 0;
  /// Node timers ride the hierarchical timer wheel (WorldConfig doc).
  /// false ⇒ legacy heap-resident timers; observable histories identical.
  bool timer_wheel = true;
  /// Record a structured trace of the run (harness/trace.hpp): protocol
  /// round spans, engine window/steal/migration events, workload and chaos
  /// instants. Observation only — digests are bit-identical either way
  /// (test_trace pins it); read the timeline via Cluster::tracer() and
  /// export with TraceWriter. Builds with -DSSBFT_TRACING=0 record nothing.
  bool trace = false;

  [[nodiscard]] Params make_params() const;
  [[nodiscard]] bool is_byzantine(NodeId id) const;

  /// Convenience: mark the last `count` nodes Byzantine.
  Scenario& with_tail_faults(std::uint32_t count);
  /// Convenience: one proposal by `general` at `at`.
  Scenario& with_proposal(Duration at, NodeId general, Value value);
  /// Convenience: select the protocol stack.
  Scenario& with_stack(StackKind kind);
};

}  // namespace ssbft
