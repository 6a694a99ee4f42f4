// The msgd-broadcast primitive (paper §5, Fig. 3).
//
// A message-driven re-formulation of the Toueg–Perry–Srikanth reliable
// broadcast. Rounds are anchored at τG (the local-time estimate produced by
// Initiator-Accept) and the per-round conditions are *upper bounds only*:
// if the anticipated messages arrive early, the primitive rushes ahead at
// actual network speed — the paper's headline systems contribution.
//
// Satisfies (system stable, n > 3f), with Φ = 8d:
//   TPS-1 Correctness   — correct p broadcasts (p,m,k) by τG+(2k−1)Φ ⇒ all
//                         accept by τG+(2k+1)Φ, within 3d real time
//   TPS-2 Unforgeability — p didn't broadcast ⇒ nobody accepts (p,m,k)
//   TPS-3 Relay         — accepted at τG+rΦ somewhere ⇒ everywhere by (r+2)Φ
//   TPS-4 Detection     — accepted (p,m,k) ⇒ p ∈ broadcasters everywhere by
//                         τG+(2k+2)Φ; and only actual broadcasters ever join
//
// Message flow per (p, m, k):  init → echo → {init', echo'} → accept.
// Messages arriving before τG is known are logged and replayed when the
// anchor is set ("nodes log messages until they are able to process them").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/flat_map.hpp"
#include "core/node_set.hpp"
#include "core/params.hpp"
#include "core/stamp_bounds.hpp"
#include "sim/node.hpp"
#include "util/types.hpp"

namespace ssbft {

class MsgdBroadcast {
 public:
  /// Called on accept (p, m, k) — at most once per triple.
  using AcceptFn = std::function<void(NodeId p, Value m, std::uint32_t k)>;

  MsgdBroadcast(const Params& params, GeneralId general, AcceptFn on_accept);

  /// Anchor the round structure at τG (set by the agreement layer when
  /// Initiator-Accept fires). Re-evaluates everything logged so far.
  void set_anchor(NodeContext& ctx, LocalTime tau_g);
  [[nodiscard]] std::optional<LocalTime> anchor() const { return tau_g_; }

  /// Line V: this node p broadcasts (p, m, k).
  void broadcast(NodeContext& ctx, Value m, std::uint32_t k);

  /// Feed an init/echo/init'/echo' message.
  void on_message(NodeContext& ctx, const WireMessage& msg);

  [[nodiscard]] const NodeSet& broadcasters() const { return broadcasters_; }
  [[nodiscard]] bool has_accepted(NodeId p, Value m, std::uint32_t k) const;

  void reset();
  void scramble(NodeContext& ctx, Rng& rng);

  [[nodiscard]] std::size_t instance_count() const { return insts_.size(); }

 private:
  struct Key {
    NodeId p = kNoNode;       // claimed broadcaster
    Value m = kBottom;
    std::uint32_t k = 0;
    auto operator<=>(const Key&) const = default;
  };

  // Per-instance sender tracking is flat NodeSets: blocks W/X/Y/Z only
  // insert and compare cardinality against the quorums, so membership
  // bits + a popcount-backed count replace three node-based std::sets.
  struct Instance {
    bool init_from_p = false;        // received (init,p,m,k) from p itself
    NodeSet echo_senders;
    NodeSet init_prime_senders;
    NodeSet echo_prime_senders;
    bool echo_sent = false;
    bool init_prime_sent = false;
    bool echo_prime_sent = false;
    bool accepted = false;
    LocalTime last_activity{};
  };

  void evaluate(NodeContext& ctx, const Key& key, Instance& inst);
  void evaluate_all(NodeContext& ctx);
  void cleanup(LocalTime now);
  void send(NodeContext& ctx, MsgKind kind, const Key& key);
  void accept(NodeContext& ctx, const Key& key, Instance& inst);
  [[nodiscard]] LocalTime deadline(std::uint32_t phase_count) const;

  const Params& params_;
  GeneralId general_;
  AcceptFn on_accept_;
  std::optional<LocalTime> tau_g_;
  // Instance records live contiguously in one sorted arena (FlatMap):
  // evaluate_all walks them in the exact Key order the std::map had.
  FlatMap<Key, Instance> insts_;
  StampBounds bounds_;  // over every insts_ last_activity
  NodeSet broadcasters_;
};

}  // namespace ssbft
