// Totally-ordered replicated log (state-machine replication) on top of
// ss-Byz-Agree — the canonical downstream use of a Byzantine agreement
// primitive, and the repository's end-to-end "would a user adopt this?"
// artifact.
//
// Design: slots are numbered; the *proposer* for slot s is s mod n
// (rotating leadership). The proposer initiates ss-Byz-Agree on an encoded
// (slot, command) value; every correct node commits the command at slot s
// when it decides (G, ⟨s,cmd⟩). The log is a map keyed by slot: only
// *decided* entries enter it, so Agreement makes the maps identical at all
// correct nodes — a local watchdog merely advances the cursor past
// faulty/idle proposers (skipped slots stay empty everywhere; a late
// decision delivered by the relay property still fills its slot).
//
// Total order for the application is slot order. Commands are 32-bit
// payloads (the agreement value carries slot ‖ command; a production system
// would agree on digests of externally stored data).
//
// Self-stabilization is inherited: after a transient fault the underlying
// agreement converges, slot cursors re-synchronize through decisions, and
// the committed suffix is identical again at every correct node.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "app/log_types.hpp"
#include "app/payload_cache.hpp"
#include "core/node.hpp"
#include "core/params.hpp"
#include "sim/node.hpp"

namespace ssbft {

class ReplicatedLogNode : public NodeBehavior {
 public:
  using CommitSink = std::function<void(const CommittedEntry&)>;
  using Log = std::map<std::uint64_t, CommittedEntry>;

  ReplicatedLogNode(Params params, LogConfig config, CommitSink sink);
  ~ReplicatedLogNode() override;

  // --- NodeBehavior --------------------------------------------------------
  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const WireMessage& msg) override;
  void on_timer(NodeContext& ctx, std::uint64_t cookie) override;
  void scramble(NodeContext& ctx, Rng& rng) override;

  // --- application API -----------------------------------------------------
  /// Queue a command; it is proposed when this node's slot comes up. The
  /// optional payload is the command's application body: it rides the
  /// proposal's Initiator broadcast through the shared payload pool, and
  /// its checksum lands on every correct node's CommittedEntry.
  void submit(std::uint32_t command, Payload payload = {});

  /// Committed entries by slot. Identical (up to local commit times) at all
  /// correct nodes for every settled slot.
  [[nodiscard]] const Log& log() const { return log_; }
  [[nodiscard]] std::uint64_t cursor() const { return cursor_; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] Duration slot_period() const { return slot_period_; }

  /// The embedded agreement node (harness probes, white-box tests).
  [[nodiscard]] SsByzNode& agreement() { return *agree_; }

  /// Encoding of (slot, command) into an agreement value — exposed for
  /// tests. Slot in bits 32..62 (the top bit stays clear of kBottom).
  [[nodiscard]] static Value encode(std::uint64_t slot, std::uint32_t command);
  static void decode(Value value, std::uint64_t& slot, std::uint32_t& command);

 private:
  static constexpr std::uint64_t kLogTimerBit = 1ULL << 62;
  enum class LogTimer : std::uint8_t { kSlotDue = 1, kWatchdog = 2 };

  void on_decision(const Decision& decision);
  void schedule_own_slot();
  void arm_watchdog();
  void maybe_propose();
  [[nodiscard]] NodeId proposer_for(std::uint64_t slot) const;

  LogConfig config_;
  Duration slot_period_{};
  Duration watchdog_timeout_{};
  CommitSink sink_;
  std::unique_ptr<SsByzNode> agree_;
  NodeContext* ctx_ = nullptr;

  struct PendingCommand {
    std::uint32_t command = 0;
    Payload payload;  // application body (pool reference; may be empty)
  };

  Log log_;
  std::vector<PendingCommand> pending_;
  PayloadCrcCache payload_crcs_;  // value → body checksum, from Initiators
  std::uint64_t cursor_ = 0;  // next slot this node expects to settle
  std::optional<LocalTime> last_activity_;
  TimerHandle watchdog_timer_{};  // re-arming cancels the predecessor
};

}  // namespace ssbft
