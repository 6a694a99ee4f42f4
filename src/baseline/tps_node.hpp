// TPS'87-style synchronous Byzantine agreement node (baseline).
//
// Assumes what the paper's protocol does NOT: a synchronized start. Every
// node is configured with the same anchor A on (zero-offset) clocks and
// steps through fixed-length phases. The agreement layer mirrors
// ss-Byz-Agree's R/S/T/U chain logic with Initiator-Accept replaced by the
// synchrony assumption: the General's round-0 value, received during phase
// 0, is adopted at the phase-1 boundary.
//
// This gives E4 its contrast: identical message pattern and resilience, but
// decision latency quantized to multiples of the worst-case phase length Φb
// — however fast the actual network happens to be. It also gives E5's
// companion ablation: started un-synchronized, this protocol simply breaks,
// which is the gap self-stabilization closes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "baseline/tps_broadcast.hpp"
#include "core/node.hpp"  // Decision / DecisionSink
#include "core/params.hpp"
#include "sim/node.hpp"

namespace ssbft {

class TpsNode : public NodeBehavior {
 public:
  /// `anchor`: common phase-0 local time (requires synchronized clocks).
  /// `phase_len`: Φb; must be ≥ d for the synchrony assumption to hold.
  /// `general`: the instance's designated General.
  TpsNode(Params params, GeneralId general, LocalTime anchor,
          Duration phase_len, DecisionSink sink);
  ~TpsNode() override;

  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const WireMessage& msg) override;
  void on_timer(NodeContext& ctx, std::uint64_t cookie) override;

  /// General role: queue value for dissemination at the phase-0 boundary.
  /// The optional application payload rides the dissemination broadcast.
  void propose(Value m, Payload payload = {});

  [[nodiscard]] bool returned() const { return returned_; }
  [[nodiscard]] std::optional<Decision> result() const { return result_; }

 private:
  void on_phase(NodeContext& ctx, std::uint32_t j);
  void on_bcast_accept(NodeContext& ctx, NodeId p, Value m, std::uint32_t k);
  void check_chain(NodeContext& ctx, std::uint32_t j);
  void do_return(NodeContext& ctx, Value value);
  [[nodiscard]] std::uint32_t chain_length(
      const std::map<std::uint32_t, std::set<NodeId>>& rounds) const;

  Params params_;
  GeneralId general_;
  LocalTime anchor_;
  Duration phase_len_;
  DecisionSink sink_;
  NodeContext* ctx_ = nullptr;

  std::unique_ptr<TpsBroadcast> bcast_;
  std::optional<Value> propose_value_;       // General only
  Payload propose_payload_;                  // body for the dissemination
  std::optional<Value> general_value_;       // received round-0 value
  bool general_value_equivocation_ = false;  // saw two different values
  std::map<Value, std::map<std::uint32_t, std::set<NodeId>>> accepts_;
  bool returned_ = false;
  std::optional<Decision> result_;
  std::uint32_t last_phase_ = 0;
};

}  // namespace ssbft
