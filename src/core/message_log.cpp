#include "core/message_log.hpp"

#include <algorithm>

namespace ssbft {

void ArrivalLog::note(const ArrivalKey& key, NodeId sender, LocalTime at) {
  map_[key].note(sender, at);
  bounds_.note(at);
}

const SenderTable* ArrivalLog::find(const ArrivalKey& key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

std::optional<Duration> ArrivalLog::shortest_window(const SenderTable* table,
                                                    std::uint32_t quorum,
                                                    LocalTime now,
                                                    Duration max_window) const {
  if (quorum == 0) return Duration::zero();
  if (table == nullptr || table->size() < quorum) return std::nullopt;

  // Windows end at `now`, so a window of size α contains a sender iff its
  // latest arrival is ≥ now−α; the quorum-th most recent latest-arrival
  // determines the minimal α.
  std::vector<LocalTime>& latest = scratch_;
  latest.clear();
  table->for_each([&](NodeId, LocalTime at) {
    if (at <= now && at >= now - max_window) latest.push_back(at);
  });
  if (latest.size() < quorum) return std::nullopt;
  std::nth_element(latest.begin(), latest.begin() + (quorum - 1), latest.end(),
                   [](LocalTime a, LocalTime b) { return a > b; });
  return now - latest[quorum - 1];
}

void ArrivalLog::append_values(MsgKind kind, std::vector<Value>& out) const {
  for (const auto& [key, senders] : map_) {
    if (key.kind != kind || senders.empty()) continue;
    if (std::find(out.begin(), out.end(), key.value) == out.end()) {
      out.push_back(key.value);
    }
  }
}

void ArrivalLog::erase_if(const std::function<bool(const ArrivalKey&)>& pred) {
  for (auto it = map_.begin(); it != map_.end();) {
    if (pred(it->first)) {
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

void ArrivalLog::decay(LocalTime now, Duration keep) {
  if (bounds_.within(now, keep)) return;  // nothing stale or future-stamped
  bounds_.reset();
  for (auto it = map_.begin(); it != map_.end();) {
    it->second.decay(now, keep);
    if (it->second.empty()) {
      it = map_.erase(it);
    } else {
      it->second.for_each([this](NodeId, LocalTime at) { bounds_.note(at); });
      ++it;
    }
  }
}

void ArrivalLog::clear() {
  map_.clear();
  bounds_.reset();
}

std::size_t ArrivalLog::total_arrivals() const {
  std::size_t total = 0;
  for (const auto& [key, senders] : map_) total += senders.size();
  return total;
}

void ArrivalLog::scramble(Rng& rng, LocalTime now, Duration span,
                          std::uint32_t n_nodes, std::uint32_t entries) {
  static constexpr MsgKind kKinds[] = {MsgKind::kSupport, MsgKind::kApprove,
                                       MsgKind::kReady, MsgKind::kBcastEcho,
                                       MsgKind::kBcastEchoPrime};
  for (std::uint32_t i = 0; i < entries; ++i) {
    ArrivalKey key;
    key.kind = kKinds[rng.next_below(std::size(kKinds))];
    key.value = rng.next_below(4);
    if (key.kind == MsgKind::kBcastEcho || key.kind == MsgKind::kBcastEchoPrime) {
      key.broadcaster = NodeId(rng.next_below(n_nodes));
      key.round = std::uint32_t(rng.next_below(8)) + 1;
    }
    const LocalTime at = now + Duration{rng.next_in(-span.ns(), span.ns())};
    note(key, NodeId(rng.next_below(n_nodes)), at);
  }
}

}  // namespace ssbft
