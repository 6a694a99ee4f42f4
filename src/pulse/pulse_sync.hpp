// Self-stabilizing Byzantine pulse synchronization atop ss-Byz-Agree.
//
// The paper (§1) notes that synchronized pulses "can actually be produced
// more efficiently atop the protocol in the current paper" (their [6],
// "Making Order in Chaos") — and that such pulses in turn let *any*
// Byzantine algorithm be made self-stabilizing. This module realizes that
// companion construction:
//
//   * Pulses are numbered by a counter c; the General for pulse c is
//     c mod n (rotating leadership).
//   * The designated General initiates ss-Byz-Agree on value c when its
//     local timer says the cycle elapsed since its previous pulse.
//   * Every correct node fires pulse c when it *decides* (G, c) — so the
//     pulse skew inherits Timeliness-1a: ≤ 3d real time between any two
//     correct nodes' pulses.
//   * A watchdog skips a silent/faulty General: if no pulse arrives within
//     cycle + ∆agr + slack, nodes advance the counter; whoever the rotation
//     now designates proposes.
//   * Counters self-stabilize through the agreement itself: a decided
//     (G, c) overwrites any corrupted local counter with c+1 at every
//     correct node, within 3d of each other.
//
// Requirements: cycle ≥ ∆0 (the General-pacing criterion IG1 — enforced at
// construction) and the usual n > 3f.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/node.hpp"
#include "core/params.hpp"
#include "pulse/pulse_types.hpp"
#include "sim/node.hpp"

namespace ssbft {

class PulseSyncNode : public NodeBehavior {
 public:
  using PulseSink = std::function<void(const PulseEvent&)>;

  PulseSyncNode(Params params, PulseConfig config, PulseSink sink);
  ~PulseSyncNode() override;

  // --- NodeBehavior --------------------------------------------------------
  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const WireMessage& msg) override;
  void on_timer(NodeContext& ctx, std::uint64_t cookie) override;
  void scramble(NodeContext& ctx, Rng& rng) override;

  [[nodiscard]] std::uint64_t counter() const { return counter_; }
  [[nodiscard]] std::optional<LocalTime> last_pulse_at() const {
    return last_pulse_;
  }
  [[nodiscard]] const Params& params() const { return agree_->params(); }
  [[nodiscard]] Duration cycle() const { return cycle_; }

  /// The embedded agreement node (harness probes, white-box tests).
  [[nodiscard]] SsByzNode& agreement() { return *agree_; }

  /// Secondary observer invoked after the primary sink on every pulse —
  /// lets the harness watch pulses when the sink is consumed by a higher
  /// layer (clock sync).
  void set_pulse_tap(PulseSink tap) { tap_ = std::move(tap); }

 private:
  // Timer-cookie namespace: the top bit separates pulse-layer timers from
  // the embedded SsByzNode's cookies.
  static constexpr std::uint64_t kPulseTimerBit = 1ULL << 63;
  enum class PulseTimer : std::uint8_t { kProposeDue = 1, kWatchdog = 2 };

  void on_decision(const Decision& decision);
  void fire_pulse(std::uint64_t counter);
  void schedule_own_slot();
  void arm_watchdog();
  void maybe_propose();
  [[nodiscard]] NodeId general_for(std::uint64_t counter) const;

  PulseConfig config_;
  Duration cycle_{};
  Duration watchdog_timeout_{};
  PulseSink sink_;
  PulseSink tap_;
  std::unique_ptr<SsByzNode> agree_;
  NodeContext* ctx_ = nullptr;

  std::uint64_t counter_ = 0;
  std::optional<LocalTime> last_pulse_;
  // First-class timer tickets (sim/node.hpp): re-arming cancels the live
  // predecessor, so stale watchdog/slot fires no longer happen at all —
  // this replaces the old watchdog-epoch staleness counter.
  TimerHandle watchdog_timer_{};
  TimerHandle slot_timer_{};
};

}  // namespace ssbft
