// A ⊥-able local-time variable with bounded history.
//
// Block K of Initiator-Accept tests `last(G,m) = ⊥ at τq − d` — the value a
// variable held *d time units ago*. TimedVar records its recent change
// events so such historical queries are exact, and supports the cleanup
// rules of Fig. 2 (expiry after a deadline; removal of clearly-wrong, i.e.
// future, timestamps). It is also a scramble target: a transient fault may
// load it with an arbitrary change history.
//
// The history is a plain vector: an empty one allocates nothing (a
// std::deque allocates in its constructor, and the protocol creates a
// TimedVar per live value), and cleanup() trims the expired prefix with
// one erase.
#pragma once

#include <optional>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace ssbft {

class TimedVar {
 public:
  /// Current value (⊥ = nullopt) *before* applying expiry; callers are
  /// expected to run cleanup() on every event before reading.
  [[nodiscard]] std::optional<LocalTime> get() const { return value_; }
  [[nodiscard]] bool is_bottom() const { return !value_.has_value(); }

  /// Set to `v`, recording that the change happened at local time `now`.
  void set(LocalTime now, LocalTime v);

  /// Reset to ⊥ at local time `now`.
  void reset(LocalTime now);

  /// Value the variable held at time `at` (exact while `at` is within the
  /// retained history; the history is trimmed by cleanup()).
  [[nodiscard]] std::optional<LocalTime> value_at(LocalTime at) const;

  /// Fig. 2 cleanup: reset to ⊥ if the stored value is in the future
  /// (value > now) or expired (value < now − expiry). Also trims history
  /// older than `history_keep` before `now`.
  void cleanup(LocalTime now, Duration expiry, Duration history_keep);

  /// Transient fault: arbitrary current value and a bogus history entry.
  void scramble(Rng& rng, LocalTime now, Duration span);

 private:
  struct Change {
    LocalTime at;
    std::optional<LocalTime> value;
  };

  void record(LocalTime at, std::optional<LocalTime> value);

  std::optional<LocalTime> value_;
  std::vector<Change> history_;
};

}  // namespace ssbft
