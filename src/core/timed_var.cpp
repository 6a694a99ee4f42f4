#include "core/timed_var.hpp"

#include <algorithm>
#include <cstddef>

namespace ssbft {

void TimedVar::set(LocalTime now, LocalTime v) {
  value_ = v;
  record(now, value_);
}

void TimedVar::reset(LocalTime now) {
  if (!value_.has_value()) return;
  value_ = std::nullopt;
  record(now, value_);
}

void TimedVar::record(LocalTime at, std::optional<LocalTime> value) {
  // Changes arrive in non-decreasing `at` order during normal operation;
  // after a scramble the history may be garbage, which value_at tolerates.
  history_.push_back(Change{at, value});
}

std::optional<LocalTime> TimedVar::value_at(LocalTime at) const {
  // Latest change with time <= at determines the value; if no such change
  // is retained, the variable is presumed ⊥ (pre-history == expired).
  std::optional<LocalTime> result;
  for (const auto& change : history_) {
    if (change.at <= at) result = change.value;
  }
  return result;
}

void TimedVar::cleanup(LocalTime now, Duration expiry, Duration history_keep) {
  if (value_.has_value() && *value_ > now) {
    // Future-stamped: "clearly wrong" (transient garbage), removed now.
    value_ = std::nullopt;
    record(now, value_);
  } else if (value_.has_value() && *value_ < now - expiry) {
    // Expired. Record the reset at the *logical* expiry instant, not at the
    // time this lazy sweep happens to run — historical queries (Block K's
    // "⊥ at τq − d") must see the value the eager protocol would have had.
    LocalTime expired_at = std::min(now, *value_ + expiry);
    if (!history_.empty()) expired_at = std::max(expired_at, history_.back().at);
    value_ = std::nullopt;
    record(expired_at, value_);
  }
  // Trim history older than the horizon, but keep at least one change
  // at/before it so value_at stays correct for queries within
  // [now - history_keep, now].
  const LocalTime horizon = now - history_keep;
  std::size_t drop = 0;
  while (drop + 1 < history_.size() && history_[drop].at < horizon &&
         history_[drop + 1].at <= horizon) {
    ++drop;
  }
  history_.erase(history_.begin(), history_.begin() + std::ptrdiff_t(drop));
}

void TimedVar::scramble(Rng& rng, LocalTime now, Duration span) {
  history_.clear();
  if (rng.next_bool(0.5)) {
    value_ = std::nullopt;
  } else {
    value_ = now + Duration{rng.next_in(-span.ns(), span.ns())};
  }
  history_.push_back(Change{now - Duration{rng.next_in(0, span.ns())}, value_});
}

}  // namespace ssbft
