// The benchmark's four workloads and the paper checks that judge them.
//
// A workload is a seeded family of *units*. A unit is one short, complete
// simulation — one Scenario run by a fresh Cluster, or (for the sweep
// workload) one whole SweepRunner grid — holding a known number of ops:
// workload injections (proposals, submits) or sweep cells. The seed picks
// the timed unit's scenario and the distinct units the simulated metrics
// are pooled over; the same seed always gives the same units.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"

namespace perfbench {

enum class Kind { kAgreeFlat, kLogHmacChaos, kAgreeChaosS4, kSweepMixedT4 };

/// Parses a workload name; nullopt for an unknown one.
[[nodiscard]] std::optional<Kind> parse_kind(const std::string& name);
[[nodiscard]] const char* to_string(Kind kind);

struct Workload {
  Kind kind = Kind::kAgreeFlat;
  /// Single-scenario workloads: the timed unit. Sweep: unused.
  ssbft::Scenario unit;
  /// Sweep workload: the grid one unit runs (ops = cells).
  std::vector<ssbft::Scenario> grid;
  std::uint32_t sweep_threads = 0;  // 0 ⇒ not a sweep workload
  /// Distinct-seeded units the simulated metrics pool over; for the sweep
  /// workload, one grid per entry (each scenario's seed already set).
  std::vector<std::vector<ssbft::Scenario>> sim_units;

  [[nodiscard]] bool sweep() const { return sweep_threads > 0; }
  /// Ops one timed unit holds.
  [[nodiscard]] std::uint32_t ops_per_unit() const;
};

/// Builds the workload for `seed`. `tiny` shrinks every unit to a
/// seconds-scale configuration for the self-tests.
[[nodiscard]] Workload make_workload(Kind kind, std::uint64_t seed, bool tiny);

/// From here on the paper's guarantees cover a run of `sc`: ∆stb after
/// the last chaos window, or after the scramble at t = 0.
[[nodiscard]] ssbft::Duration stable_from(const ssbft::Scenario& sc);

/// The same scenario on the serial engine (the sharded workload's
/// digest-identical twin).
[[nodiscard]] ssbft::Scenario serial_twin(ssbft::Scenario sc);

/// What the paper's checks made of one completed unit.
struct Verdict {
  std::uint32_t ops = 0;     // injections (or 1 for a sweep cell)
  std::uint32_t judged = 0;  // ops a paper guarantee covers
  std::uint32_t passed = 0;  // judged ops that met every check
  std::vector<double> latency_ns;   // judged proposal→decision / submit→commit
  std::vector<double> recovery_ns;  // window end → a correct node's first output
  std::uint64_t events = 0;
  std::uint64_t sent = 0;
  std::uint64_t wire_bytes = 0;  // 32-byte headers + payload bytes
  std::uint64_t digest = 0;
  bool stack_pass = false;  // evaluate_stack's own verdict
  std::vector<std::string> failures;  // one line per failed check
};

/// Judges a finished cluster by its stack's guarantees: Agreement and
/// Validity, decision within ∆agr, decision skew ≤ 3d and τG skew ≤ 6d,
/// commits identical at every correct node, and re-convergence within
/// ∆stb after every chaos window the guarantee covers. Only ops injected
/// after the stabilization bound of the last chaos window (or scramble)
/// are judged.
[[nodiscard]] Verdict judge(ssbft::Cluster& cluster);

/// Size of a wire header on the conceptual wire (docs/wire-format.md).
inline constexpr std::uint64_t kHeaderBytes = 32;

}  // namespace perfbench
