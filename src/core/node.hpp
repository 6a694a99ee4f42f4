// SsByzNode: the deployable protocol node.
//
// Owns one ss-Byz-Agree instance per General (created lazily on first
// traffic), routes messages/timers to them, and implements the General role:
// Q0 (disseminating (Initiator, G, m)) guarded by the Sending Validity
// Criteria —
//   IG1: ≥ ∆0 since the previous initiation,
//   IG2: ≥ ∆v since the previous initiation with the same value,
//   IG3: no Initiator-Accept invocation failed in the last ∆reset (lines
//        L4/M4/N4 must complete within 2d/3d/4d of the invocation; on
//        failure the General stays silent for ∆reset).
//
// Every protocol decision/abort is published through a DecisionSink; the
// harness uses it to check Agreement/Validity/Timeliness in real time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "core/flat_map.hpp"
#include "core/params.hpp"
#include "core/ss_byz_agree.hpp"
#include "sim/node.hpp"
#include "util/types.hpp"

namespace ssbft {

/// One protocol return at one node, as published to the application.
struct Decision {
  NodeId node = kNoNode;
  GeneralId general{};
  Value value = kBottom;  // kBottom ⇔ abort (⊥)
  LocalTime tau_g{};
  LocalTime at{};
  [[nodiscard]] bool decided() const { return value != kBottom; }
};

using DecisionSink = std::function<void(const Decision&)>;

/// Outcome of a propose() call (General role, block Q0).
enum class ProposeStatus {
  kSent,
  kTooSoon,          // IG1: < ∆0 since last initiation
  kTooSoonSameValue, // IG2: < ∆v since last initiation of this value
  kBackoff,          // IG3: a recent invocation failed; silent for ∆reset
  kNotStarted,       // node not started yet
};

/// Number of ProposeStatus enumerators (test_enums checks that to_string
/// covers exactly this many).
inline constexpr std::uint32_t kProposeStatusCount = 5;

[[nodiscard]] const char* to_string(ProposeStatus s);

class SsByzNode : public NodeBehavior {
 public:
  SsByzNode(Params params, DecisionSink sink);
  ~SsByzNode() override;

  // --- NodeBehavior ------------------------------------------------------
  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const WireMessage& msg) override;
  void on_timer(NodeContext& ctx, std::uint64_t cookie) override;
  void scramble(NodeContext& ctx, Rng& rng) override;

  // --- General role (application API) -------------------------------------
  /// Initiate agreement on `m` with this node as General, on concurrent-
  /// invocation instance `index` (footnote 9; 0 = the paper's base
  /// protocol). The Sending Validity Criteria (IG1–IG3) are tracked per
  /// index: each (G, index) instance has independent message logs and
  /// freshness windows, so pacing one instance has nothing to protect in
  /// another. Call only from within the event loop. An optional application
  /// `payload` rides the Initiator broadcast (shared payload pool) — the
  /// agreement logic never reads it; log stacks bind it to the committed
  /// command.
  ProposeStatus propose(Value m, std::uint32_t index = 0,
                        Payload payload = {});

  /// IG-criteria bookkeeping reset (used by tests that replay histories).
  void clear_general_state();

  /// Secondary observer invoked after the primary sink for every published
  /// return. Stacks built atop this node (pulse, logs) consume the primary
  /// sink themselves; the tap lets the harness watch the agreement stream
  /// of ANY stack without disturbing the stack's own plumbing.
  void set_decision_tap(DecisionSink tap) { tap_ = std::move(tap); }

  [[nodiscard]] const Params& params() const { return params_; }
  /// Instance accessor for white-box tests (may create the instance).
  [[nodiscard]] SsByzAgree& instance(GeneralId general);
  [[nodiscard]] bool has_instance(GeneralId general) const;
  [[nodiscard]] std::optional<LocalTime> backoff_until(
      std::uint32_t index = 0) const {
    const auto it = pacing_.find(index);
    return it == pacing_.end() ? std::nullopt : it->second.backoff_until;
  }

 private:
  enum class TimerOp : std::uint8_t {
    kAgreeRoundDeadline = 1,  // forwarded to SsByzAgree
    kAgreePostReturn = 2,     // forwarded to SsByzAgree
    kIg3CheckL4 = 3,
    kIg3CheckM4 = 4,
    kIg3CheckN4 = 5,
  };

  static std::uint64_t encode_cookie(GeneralId general, TimerOp op,
                                     std::uint32_t payload);
  static void decode_cookie(std::uint64_t cookie, GeneralId& general,
                            TimerOp& op, std::uint32_t& payload);

  SsByzAgree& get_instance(GeneralId general);
  void ig3_check(NodeContext& ctx, TimerOp op, std::uint32_t index);

  Params params_;
  DecisionSink sink_;
  DecisionSink tap_;
  NodeContext* ctx_ = nullptr;  // set at on_start; stable for node lifetime

  // Sorted by General. Nothing iterates or erases it, and a lookup per
  // message is a binary search over a dense array (a table indexed by node
  // id would not scale to n = 4096).
  FlatMap<GeneralId, std::unique_ptr<SsByzAgree>> instances_;

  // General-role pacing state, per concurrent-invocation index (footnote
  // 9). Scramble targets it like everything else.
  struct GeneralPacing {
    std::optional<LocalTime> last_initiation;
    std::map<Value, LocalTime> last_initiation_of_value;
    std::optional<LocalTime> backoff_until;
    std::optional<LocalTime> pending_invocation;  // IG3 monitoring window
  };
  std::map<std::uint32_t, GeneralPacing> pacing_;
};

}  // namespace ssbft
