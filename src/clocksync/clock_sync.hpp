// Self-stabilizing Byzantine clock synchronization atop pulse
// synchronization.
//
// The paper's companion results ([5] "Linear Time Byzantine Self-Stabilizing
// Clock Synchronization", and the §1 discussion) show that synchronized
// pulses make *any* Byzantine algorithm self-stabilizing — clock
// synchronization being the canonical application. This module realizes
// that construction on top of PulseSyncNode (itself built on ss-Byz-Agree):
//
//   * Each node runs a logical clock C(τ) = base + (τ − anchor), a
//     free-running extension of its drifting hardware timer.
//   * Every agreed pulse (counter c) snaps the clock: base := c·cycle,
//     anchor := the pulse instant. Agreement on c makes the snap target
//     identical at all correct nodes; Timeliness-1a makes the snap instants
//     at most 3d real time apart.
//   * Precision therefore converges to  3d·(1+ρ) + 2ρ·cycle  regardless of
//     initial state: one decided pulse after stabilization overwrites any
//     scrambled base/anchor at every correct node.
//   * Optionally the clock wraps modulo M (bounded clocks are what the
//     self-stabilizing clock-sync literature requires — a transient fault
//     can set an unbounded counter arbitrarily high, which a bounded clock
//     "forgets" within one wrap).
//
// Accuracy note: each pulse advances the logical clock by exactly `cycle`,
// while the real gap between pulses is cycle (on the proposer's timer) plus
// the agreement latency. The logical clock therefore runs slightly slow
// relative to real time, by a factor ≈ cycle / (cycle + latency); the rate
// is constant-bounded, which is what digital clock synchronization promises
// (an envelope, not rate-perfect time). bench_clocksync measures it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "clocksync/clock_sync_types.hpp"
#include "core/params.hpp"
#include "pulse/pulse_sync.hpp"
#include "sim/node.hpp"

namespace ssbft {

class ClockSyncNode : public NodeBehavior {
 public:
  using AdjustSink = std::function<void(const ClockAdjustment&)>;

  ClockSyncNode(Params params, ClockSyncConfig config,
                AdjustSink sink = nullptr);
  ~ClockSyncNode() override;

  // --- NodeBehavior --------------------------------------------------------
  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const WireMessage& msg) override;
  void on_timer(NodeContext& ctx, std::uint64_t cookie) override;
  void scramble(NodeContext& ctx, Rng& rng) override;

  // --- clock API -----------------------------------------------------------
  /// Current synchronized clock reading. Meaningful (within the precision
  /// bound of other correct nodes) once synchronized() is true.
  [[nodiscard]] Duration clock() const;
  /// True once at least one pulse has snapped the clock since start (or
  /// since the last transient fault hit this node).
  [[nodiscard]] bool synchronized() const { return synchronized_; }
  /// Counter of the pulse that last snapped this clock. The precision bound
  /// applies at *settled* instants — when all correct nodes report the same
  /// value here. During the ≤ 3d window in which a pulse has snapped some
  /// nodes but not yet others, the pairwise skew transiently equals the
  /// adjustment magnitude instead (Timeliness-1a bounds the window, not the
  /// jump; bench_clocksync measures both regimes).
  [[nodiscard]] std::optional<std::uint64_t> last_snap_counter() const {
    return last_snap_counter_;
  }

  [[nodiscard]] Duration cycle() const { return pulse_->cycle(); }
  [[nodiscard]] Duration modulus() const { return modulus_; }
  [[nodiscard]] const Params& params() const { return pulse_->params(); }
  /// The pulse layer (white-box tests).
  [[nodiscard]] PulseSyncNode& pulse_layer() { return *pulse_; }

  /// Precision the construction guarantees between correct nodes once
  /// stable: pulse skew (3d, Timeliness-1a) + relative drift over a cycle.
  [[nodiscard]] Duration precision_bound() const;

 private:
  void on_pulse(const PulseEvent& event);
  [[nodiscard]] Duration wrap(Duration c) const;
  /// Signed minimal residue of (a − b) under the modulus (circular error).
  [[nodiscard]] Duration circular_delta(Duration a, Duration b) const;

  ClockSyncConfig config_;
  Duration modulus_{};
  double slew_rate_ = 0.1;
  AdjustSink sink_;
  std::unique_ptr<PulseSyncNode> pulse_;
  NodeContext* ctx_ = nullptr;

  Duration base_{};       // clock value at anchor_
  LocalTime anchor_{};    // local time of the last snap
  // kSlew: leftover positive residual being absorbed (clock reads
  // base + elapsed + max(0, residual_ − slew_rate·elapsed-since-snap)).
  Duration residual_{};
  bool synchronized_ = false;
  std::optional<std::uint64_t> last_snap_counter_;
};

}  // namespace ssbft
