// Pipelined totally-ordered replicated log — the footnote-9 payoff.
//
// ReplicatedLogNode (replicated_log.hpp) settles one slot at a time: slot
// s+1 starts only after slot s commits or is skipped, so throughput is one
// command per slot_period. This variant keeps a window of `depth` slots in
// flight concurrently, using the concurrent-invocation indices of footnote
// 9: slot s is agreed through instance (proposer(s), (s / n) mod
// max_indices), so the same proposer can drive several agreements at once —
// each with its own message logs, freshness windows, and IG pacing.
//
// Ordering and safety are unchanged from the sequential log:
//   * only decisions create entries, and Agreement makes every settled slot
//     identical at all correct nodes;
//   * delivery is in slot order — entry s is delivered only after every
//     slot < s is settled (committed) or skipped;
//   * a skip is safe: the watchdog timeout exceeds the decision-relay bound
//     (3d) by orders of magnitude, so if ANY correct node committed slot s,
//     every correct node commits it long before any watchdog skips it.
//
// Self-stabilization is inherited per instance: a transient fault scrambles
// window cursors and in-flight instances; each (G, index) instance
// converges independently, and the watchdog re-anchors the window.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "app/log_types.hpp"
#include "app/payload_cache.hpp"
#include "core/node.hpp"
#include "core/params.hpp"
#include "sim/node.hpp"

namespace ssbft {

class PipelinedLogNode : public NodeBehavior {
 public:
  /// Called in slot order, exactly once per settled slot (including
  /// skipped holes, so applications can track progress).
  using DeliverSink = std::function<void(const PipelinedEntry&)>;

  PipelinedLogNode(Params params, PipelineConfig config, DeliverSink sink);
  ~PipelinedLogNode() override;

  // --- NodeBehavior --------------------------------------------------------
  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const WireMessage& msg) override;
  void on_timer(NodeContext& ctx, std::uint64_t cookie) override;
  void scramble(NodeContext& ctx, Rng& rng) override;

  // --- application API -----------------------------------------------------
  /// Queue a command; it is proposed in the next owned slot with capacity.
  /// The optional payload is the command's application body (see
  /// ReplicatedLogNode::submit); it stays bound to the command through slot
  /// assignment, skip-release, and re-proposal.
  void submit(std::uint32_t command, Payload payload = {});

  /// Next slot to be delivered (everything below is settled and flushed).
  [[nodiscard]] std::uint64_t delivered_upto() const { return deliver_next_; }
  /// Every settled slot (committed or skipped). For any slot settled after
  /// the system stabilizes, this record is identical at all correct nodes.
  /// Delivery streams (the sink) additionally re-converge for slots above
  /// the post-fault horizon; slots a scrambled cursor already passed are
  /// pre-coherence damage the agreement layer does not retroactively heal —
  /// production deployments layer state transfer on top (see DESIGN.md).
  [[nodiscard]] const std::map<std::uint64_t, PipelinedEntry>& settled()
      const {
    return settled_;
  }
  /// Lowest unsettled slot (window base).
  [[nodiscard]] std::uint64_t window_base() const { return low_; }
  [[nodiscard]] std::uint32_t depth() const { return depth_; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] Duration slot_period() const { return slot_period_; }
  [[nodiscard]] const Params& params() const { return agree_->params(); }

  /// The embedded agreement node (harness probes, white-box tests).
  [[nodiscard]] SsByzNode& agreement() { return *agree_; }

 private:
  static constexpr std::uint64_t kPipeTimerBit = 1ULL << 62;
  enum class PipeTimer : std::uint8_t {
    kProposeDue = 1,
    kWatchdog = 2,
    kHoleGrace = 3,
  };

  struct PendingCommand {
    std::uint32_t command = 0;
    Payload payload;  // application body (pool reference; may be empty)
  };

  void on_decision(const Decision& decision);
  void propose_owned_slots();
  void arm_watchdog();
  void flush_deliveries();
  void settle(std::uint64_t slot, std::optional<std::uint32_t> command,
              NodeId proposer, std::uint64_t payload_crc = 0);
  /// Mark unsettled slots in [from, to) as hole candidates: if still
  /// unsettled after the grace period (≥ ∆agr + relay margin, so any
  /// in-flight agreement has landed at every correct node), they settle as
  /// skipped holes. Settling them immediately would race in-flight
  /// decisions and break per-slot agreement.
  void begin_catchup(std::uint64_t from, std::uint64_t to);
  void sweep_hole_grace();
  [[nodiscard]] Duration hole_grace() const;
  [[nodiscard]] NodeId proposer_for(std::uint64_t slot) const;
  [[nodiscard]] std::uint32_t index_for(std::uint64_t slot) const;
  TimerHandle set_pipe_timer(Duration after, PipeTimer kind,
                             std::uint32_t payload);

  PipelineConfig config_;
  std::uint32_t depth_ = 1;
  Duration slot_period_{};
  Duration watchdog_timeout_{};
  DeliverSink sink_;
  std::unique_ptr<SsByzNode> agree_;
  NodeContext* ctx_ = nullptr;

  std::map<std::uint64_t, PipelinedEntry> settled_;
  std::deque<PendingCommand> pending_;
  std::map<std::uint64_t, PendingCommand> assigned_;  // slot → queued command
  PayloadCrcCache payload_crcs_;  // value → body checksum, from Initiators
  std::set<std::uint64_t> proposed_;                 // sent to agreement
  std::map<std::uint64_t, LocalTime> hole_due_;      // grace deadlines
  std::uint64_t low_ = 0;           // window base (proposals start here)
  std::uint64_t deliver_next_ = 0;  // next slot to hand to the sink
  TimerHandle watchdog_timer_{};    // re-arming cancels the predecessor
};

}  // namespace ssbft
