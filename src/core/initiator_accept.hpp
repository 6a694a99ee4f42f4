// The Initiator-Accept primitive (paper §4, Fig. 2).
//
// One instance runs per (node, General). Its job: give all correct nodes a
// consistent local-time anchor τG for an initiation by a possibly-Byzantine
// General, and converge them on one candidate value. The guarantees (once
// the system is stable, n > 3f):
//
//   IA-1 Correctness    — correct G ⇒ all I-accept its value within 4d of
//                         the invocation, within 2d of each other, τG
//                         estimates within d; t0−d ≤ rt(τG) ≤ rt(τq) ≤ t0+4d
//   IA-2 Unforgeability — nobody invoked ⇒ nobody I-accepts
//   IA-3 ∆agr-Relay     — one I-accept ⇒ all do, within 2d, τG within 6d
//   IA-4 Uniqueness     — distinct values are ≥ 4d apart; repeats of the
//                         same value are ≤ 6d or > 2∆rmv−3d apart
//
// Message flow: (Initiator) → support → approve → ready → I-accept, with
// the window/quorum tests of blocks K/L/M/N. All state decays (cleanup
// block), which is what makes the primitive self-stabilizing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/flat_map.hpp"
#include "core/message_log.hpp"
#include "core/params.hpp"
#include "core/timed_var.hpp"
#include "sim/node.hpp"
#include "util/types.hpp"

namespace ssbft {

class InitiatorAccept {
 public:
  /// Called when Line N4 issues I-accept ⟨G, m, τG⟩.
  using IAcceptFn = std::function<void(Value m, LocalTime tau_g)>;

  InitiatorAccept(const Params& params, GeneralId general, IAcceptFn on_accept);

  /// Block K: explicit invocation upon receiving (Initiator, G, m).
  void invoke(NodeContext& ctx, Value m);

  /// Feed a support/approve/ready message (Initiator handled via invoke()).
  void on_message(NodeContext& ctx, const WireMessage& msg);

  /// Full reset (ss-Byz-Agree's "3d after returning a value reset
  /// Initiator-Accept"); also used by a General before a new invocation.
  void reset();

  /// Transient-fault hook: arbitrary state.
  void scramble(NodeContext& ctx, Rng& rng);

  // --- introspection (tests, and the General's IG3 failure detection) ---
  [[nodiscard]] std::optional<LocalTime> last_l4() const { return last_l4_; }
  [[nodiscard]] std::optional<LocalTime> last_m4() const { return last_m4_; }
  [[nodiscard]] std::optional<LocalTime> last_n4() const { return last_n4_; }
  [[nodiscard]] std::optional<LocalTime> i_value_of(Value m) const;
  [[nodiscard]] std::vector<Value> i_value_keys() const;
  /// True iff Block K's preconditions would pass for value `m` right now
  /// (after cleanup); `why` receives a short diagnostic when they fail.
  [[nodiscard]] bool k1_would_pass(LocalTime now, Value m,
                                   std::string* why = nullptr) const;
  [[nodiscard]] bool ready_set(Value m) const { return ready_since_.contains(m); }
  [[nodiscard]] std::size_t log_size() const { return log_.total_arrivals(); }
  /// Count of N4 executions whose i_values entry had already decayed — can
  /// only happen outside stability; surfaced for diagnostics.
  [[nodiscard]] std::uint64_t accepts_without_anchor() const {
    return accepts_without_anchor_;
  }

 private:
  void cleanup(LocalTime now);
  void evaluate(NodeContext& ctx);
  void evaluate_value(NodeContext& ctx, Value m, LocalTime now);
  bool rate_limited_send(NodeContext& ctx, MsgKind kind, Value m);
  [[nodiscard]] bool ignoring(Value m, LocalTime now) const;
  void touch(Value m, LocalTime now);  // lastq(G,m) := τq

  const Params& params_;
  GeneralId general_;
  IAcceptFn on_accept_;

  // Per-value tables are sorted FlatMaps: a handful of live values probed
  // on every message, iterated in the same ascending order the std::map
  // originals had (evaluate()'s candidate loop sends while walking them).
  ArrivalLog log_;                                // support/approve/ready
  FlatMap<Value, LocalTime> i_values_;            // i_values[G,m]
  TimedVar last_g_;                               // lastq(G)
  FlatMap<Value, TimedVar> last_gm_;              // lastq(G,m)
  FlatMap<Value, LocalTime> ready_since_;         // ready_{G,m} set-time
  FlatMap<Value, LocalTime> ignore_until_;        // N4's 3d ignore window
  std::optional<LocalTime> last_support_sent_;    // any (support, G, *)
  FlatMap<std::pair<std::uint8_t, Value>, LocalTime> last_sent_;  // resend cap

  std::vector<Value> candidates_;  // evaluate()'s reused candidate buffer

  std::optional<LocalTime> last_l4_;
  std::optional<LocalTime> last_m4_;
  std::optional<LocalTime> last_n4_;
  std::uint64_t accepts_without_anchor_ = 0;
};

}  // namespace ssbft
