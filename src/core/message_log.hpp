// Timestamped message-arrival log with sliding-window quorum queries.
//
// Initiator-Accept's blocks L and M test conditions of the form "received
// (kind, G, m) from ≥ k distinct nodes within [τq−w, τq]" — windows always
// end at the current local time, so only each sender's *latest* arrival is
// relevant, and the log stores exactly that. Block L1 additionally asks for
// the *shortest* such window (the α ≤ 4d in Fig. 2); Block N counts distinct
// senders with no window at all. msgd-broadcast reuses the same structure
// keyed additionally by (broadcaster, round).
//
// Everything here decays (Fig. 2/3 cleanup): arrivals older than the keep
// horizon — or stamped in the future, which can only happen after a
// transient fault — are purged by decay(), which the owner runs before
// every query. The log tracks bounds over its live stamps (StampBounds), so
// a decay that would erase nothing returns without touching the tables.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/stamp_bounds.hpp"
#include "sim/wire.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ssbft {

/// Log key: message kind + value (+ broadcaster/round for msgd-broadcast;
/// Initiator-Accept leaves them at their defaults).
struct ArrivalKey {
  MsgKind kind = MsgKind::kInitiator;
  Value value = kBottom;
  NodeId broadcaster = kNoNode;
  std::uint32_t round = 0;

  friend bool operator==(const ArrivalKey&, const ArrivalKey&) = default;
};

struct ArrivalKeyHash {
  std::size_t operator()(const ArrivalKey& k) const noexcept {
    std::size_t h = std::hash<std::uint64_t>{}(k.value);
    h ^= std::hash<std::uint32_t>{}(k.broadcaster) + 0x9e3779b9 + (h << 6);
    h ^= (std::size_t(k.kind) << 8 | k.round) + 0x9e3779b9 + (h << 6);
    return h;
  }
};

/// Flat latest-arrival-per-sender table: one open-addressed array of
/// (sender, at) slots instead of a node-based unordered_map. Every query
/// (window counts, quorum windows, decay) is a linear sweep over
/// contiguous 16-byte slots — the hot path of Initiator-Accept's per-
/// message rule evaluation — and the table stays exact under the same
/// latest-per-sender contract as before. Deletion (decay) rebuilds the
/// table in place, which costs the same O(capacity) as the sweep that
/// found the stale entries.
class SenderTable {
 public:
  /// Keep the latest arrival for `sender`.
  void note(NodeId sender, LocalTime at) {
    if (slots_.empty()) rehash(kMinCapacity);
    Slot& s = probe(sender);
    if (s.used) {
      if (s.at < at) s.at = at;
      return;
    }
    s.used = true;
    s.sender = sender;
    s.at = at;
    ++count_;
    if (count_ * 4 >= slots_.size() * 3) rehash(slots_.size() * 2);
  }

  [[nodiscard]] std::uint32_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Visits every (sender, latest-arrival) pair; order unspecified (all
  /// consumers aggregate, none observe order).
  template <class F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.used) f(s.sender, s.at);
    }
  }

  /// Senders whose latest arrival lies in [from, to].
  [[nodiscard]] std::uint32_t count_in(LocalTime from, LocalTime to) const {
    std::uint32_t count = 0;
    for (const Slot& s : slots_) {
      if (s.used && s.at >= from && s.at <= to) ++count;
    }
    return count;
  }

  /// Drops entries with `at > now || at < now - keep`; rebuilds on erase.
  void decay(LocalTime now, Duration keep) {
    bool stale = false;
    for (const Slot& s : slots_) {
      if (s.used && (s.at > now || s.at < now - keep)) {
        stale = true;
        break;
      }
    }
    if (!stale) return;
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    count_ = 0;
    for (const Slot& s : old) {
      if (s.used && s.at <= now && s.at >= now - keep) note(s.sender, s.at);
    }
  }

 private:
  struct Slot {
    LocalTime at{};
    NodeId sender = 0;
    bool used = false;
  };
  static constexpr std::size_t kMinCapacity = 8;  // power of two

  [[nodiscard]] Slot& probe(NodeId sender) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (sender * std::uint64_t{0x9E3779B97F4A7C15}) & mask;
    while (slots_[i].used && slots_[i].sender != sender) i = (i + 1) & mask;
    return slots_[i];
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    for (const Slot& s : old) {
      if (s.used) probe(s.sender) = s;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t count_ = 0;
};

class ArrivalLog {
 public:
  /// Record an arrival at local time `at` (keeps the latest per sender).
  /// Contract: in normal operation `at` is the receipt time (the caller's
  /// local now), so per-sender timestamps are monotone; non-monotone or
  /// future stamps only enter through scramble() and are purged by decay().
  /// The latest-per-sender representation is exact under this contract
  /// because every window query ends at the caller's current time.
  void note(const ArrivalKey& key, NodeId sender, LocalTime at);

  /// The sender table logged under `key`, or nullptr when there is none.
  /// The pointer stays valid until the next erase_if, decay or clear
  /// (note() never moves a table), so a caller can look a key up once and
  /// run every window query of one evaluation against it.
  [[nodiscard]] const SenderTable* find(const ArrivalKey& key) const;

  /// Distinct senders with an arrival in [from, to].
  [[nodiscard]] std::uint32_t distinct_in_window(const ArrivalKey& key,
                                                 LocalTime from,
                                                 LocalTime to) const {
    return distinct_in_window(find(key), from, to);
  }
  [[nodiscard]] static std::uint32_t distinct_in_window(
      const SenderTable* table, LocalTime from, LocalTime to) {
    return table == nullptr ? 0 : table->count_in(from, to);
  }

  /// Smallest α ≤ max_window such that [now−α, now] holds arrivals from
  /// ≥ `quorum` distinct senders; nullopt if no such α exists.
  [[nodiscard]] std::optional<Duration> shortest_window(
      const ArrivalKey& key, std::uint32_t quorum, LocalTime now,
      Duration max_window) const {
    return shortest_window(find(key), quorum, now, max_window);
  }
  [[nodiscard]] std::optional<Duration> shortest_window(
      const SenderTable* table, std::uint32_t quorum, LocalTime now,
      Duration max_window) const;

  /// Distinct senders irrespective of time (Block N; decay still applies).
  [[nodiscard]] std::uint32_t distinct_total(const ArrivalKey& key) const {
    return distinct_total(find(key));
  }
  [[nodiscard]] static std::uint32_t distinct_total(const SenderTable* table) {
    return table == nullptr ? 0 : table->size();
  }

  /// Appends to `out`, in map order, every value that has arrivals of
  /// `kind` and is not in `out` yet (the candidate set for per-value rule
  /// evaluation, built in a buffer the caller reuses).
  void append_values(MsgKind kind, std::vector<Value>& out) const;

  /// Remove every record whose key satisfies `pred` (N4's "remove all (G,m)
  /// messages", per-value resets).
  void erase_if(const std::function<bool(const ArrivalKey&)>& pred);

  /// Cleanup: drop arrivals older than now−keep or later than now. Returns
  /// at once when the stamp bounds show nothing is due.
  void decay(LocalTime now, Duration keep);

  void clear();
  [[nodiscard]] std::size_t total_arrivals() const;

  /// Transient fault: populate with arbitrary arrivals around `now`.
  void scramble(Rng& rng, LocalTime now, Duration span, std::uint32_t n_nodes,
                std::uint32_t entries);

 private:
  // The outer index stays an unordered_map on purpose: append_values()
  // exposes its iteration order to Initiator-Accept's candidate loop
  // (visit order decides send order, which decides digests), and that
  // order is a function of the key insert/erase sequence alone. A skipped
  // decay erases nothing, so it leaves that sequence untouched too. The
  // hot per-message work (window counts, decay sweeps) all lives in the
  // flat SenderTable values.
  std::unordered_map<ArrivalKey, SenderTable, ArrivalKeyHash> map_;
  StampBounds bounds_;  // over every live arrival stamp
  mutable std::vector<LocalTime> scratch_;  // shortest_window's selection
};

}  // namespace ssbft
