// The ss-Byz-Agree protocol (paper §3, Fig. 1).
//
// One instance per (node, General). The instance owns its Initiator-Accept
// and msgd-broadcast primitives and implements blocks Q/R/S/T/U:
//
//   Q  — invoke Initiator-Accept upon the General's (Initiator, G, m)
//   R  — fresh I-accept (τq − τG ≤ 4d): adopt the value, relay at round 1,
//        decide
//   S  — a chain of r relayed broadcasts (p_i, ⟨G,m⟩, i), i = 1..r, with
//        distinct p_i ≠ G, seen by τG+(2r+1)Φ: adopt, relay at r+1, decide
//   T  — too few identified broadcasters by τG+(2r+1)Φ: abort (⊥)
//   U  — hard deadline τG+(2f+1)Φ: abort (⊥)
//
// After returning, the node keeps serving the primitives for 3d (so peers
// can finish), then resets them — making the instance reusable for the
// General's next invocation (recurrent agreement).
//
// Properties once stable (n > 3f): Agreement, Validity, Termination, and
// the Timeliness bounds of §3 — all measured by the bench suite.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/flat_map.hpp"
#include "core/initiator_accept.hpp"
#include "core/msgd_broadcast.hpp"
#include "core/params.hpp"
#include "core/stamp_bounds.hpp"
#include "sim/node.hpp"
#include "util/types.hpp"

namespace ssbft {

/// Outcome of one protocol execution at one node.
struct AgreeResult {
  GeneralId general{};
  Value value = kBottom;  // kBottom ⇔ abort (⊥)
  LocalTime tau_g{};      // anchor estimate for the General's initiation
  LocalTime returned_at{};
  [[nodiscard]] bool decided() const { return value != kBottom; }
};

class SsByzAgree {
 public:
  using ReturnFn = std::function<void(const AgreeResult&)>;

  /// Timer cookies the owner must route back via on_timer. The owner
  /// namespaces them per instance; the low bits are:
  enum class TimerKind : std::uint8_t {
    kRoundDeadline = 1,  // T1/U1 checks; payload = round r (or kU1Payload)
    kPostReturn = 2,     // reset primitives 3d after returning
  };

  /// kRoundDeadline payload marking the U1 hard deadline.
  static constexpr std::uint32_t kU1Payload = 0xFFFFFFFF;

  SsByzAgree(const Params& params, GeneralId general, ReturnFn on_return);

  /// Block Q1: received (Initiator, G, m).
  void invoke(NodeContext& ctx, Value m);

  /// Route any support/approve/ready/init/echo/init'/echo' for this General.
  void on_message(NodeContext& ctx, const WireMessage& msg);

  /// Timer dispatch: `kind` + payload as scheduled via RequestTimerFn.
  void on_timer(NodeContext& ctx, TimerKind kind, std::uint32_t payload);

  /// The owner supplies the timer service (cookie namespacing is its job).
  /// The request function returns the handle minted by NodeContext; the
  /// optional cancel function lets the instance retire its round-deadline
  /// timers the moment it returns instead of letting them fire as no-ops
  /// (handlers still re-validate — a transient fault can lose any handle).
  using RequestTimerFn = std::function<TimerHandle(
      LocalTime when, TimerKind kind, std::uint32_t payload)>;
  using CancelTimerFn = std::function<bool(TimerHandle handle)>;
  void set_timer_service(RequestTimerFn fn, CancelTimerFn cancel = nullptr) {
    request_timer_ = std::move(fn);
    cancel_timer_ = std::move(cancel);
  }

  [[nodiscard]] bool running() const { return tau_g_.has_value() && !returned_; }
  [[nodiscard]] bool returned() const { return returned_; }
  [[nodiscard]] std::optional<AgreeResult> last_result() const {
    return last_result_;
  }

  [[nodiscard]] InitiatorAccept& initiator_accept() { return ia_; }
  /// Values with accepted-broadcast records (introspection for tests).
  [[nodiscard]] std::size_t accept_count() const { return accepts_.size(); }
  [[nodiscard]] MsgdBroadcast& broadcastp() { return bc_; }

  void reset();
  void scramble(NodeContext& ctx, Rng& rng);

 private:
  /// Arm a T1/U1 deadline check and remember its handle for cancellation.
  void arm_deadline(LocalTime when, std::uint32_t payload);
  /// Retire every outstanding deadline check (returned / superseded).
  void cancel_deadlines();

  void on_i_accept(Value m, LocalTime tau_g);
  void on_bcast_accept(NodeId p, Value m, std::uint32_t k);
  void check_block_s(NodeContext& ctx);
  void check_deadline_state(NodeContext& ctx);
  void do_return(NodeContext& ctx, Value value);
  void cleanup(LocalTime now);
  /// Per-round broadcaster sets: sparse sorted round index (wire rounds
  /// are attacker-controlled — no dense array) over flat bitset members.
  using RoundTable = FlatMap<std::uint32_t, NodeSet>;

  /// Largest r such that rounds 1..r of `rounds` admit distinct
  /// representatives (a bipartite matching), capped at `max_r`.
  [[nodiscard]] std::uint32_t chain_length(const RoundTable& rounds,
                                           std::uint32_t max_r) const;

  const Params& params_;
  GeneralId general_;
  ReturnFn on_return_;
  RequestTimerFn request_timer_;
  CancelTimerFn cancel_timer_;
  std::vector<TimerHandle> deadline_timers_;  // this invocation's T1/U1 checks

  InitiatorAccept ia_;
  MsgdBroadcast bc_;

  // The NodeContext is only valid during a callback; primitives invoke the
  // accept hooks synchronously from on_message/invoke, so we stash the
  // current ctx for the duration of each entry point.
  NodeContext* ctx_ = nullptr;

  std::optional<LocalTime> tau_g_;
  std::optional<Value> ia_value_;
  bool returned_ = false;
  std::optional<AgreeResult> last_result_;

  // Accepted broadcasts: value → round → broadcasters, all flat (sorted
  // value/round slots, bitset members). Entries decay after (2f+1)Φ + 3d
  // (Fig. 1 cleanup).
  struct AcceptRec {
    RoundTable rounds;
    LocalTime last_update{};
  };
  FlatMap<Value, AcceptRec> accepts_;
  StampBounds accept_bounds_;  // over every last_update in accepts_
};

}  // namespace ssbft
