// Conservative bounds over the live timestamps of one decaying table.
//
// Every cleanup rule of the paper (Fig. 1's (2f+1)Φ + 3d, Fig. 2's ∆rmv,
// Fig. 3's (2f+3)Φ) has the same shape: erase each record stamped before
// now − keep or after now. The tables run that rule on every message, yet
// almost always nothing is due. StampBounds keeps `lo` ≤ every live stamp
// and `hi` ≥ every live stamp; while [lo, hi] lies inside [now − keep, now]
// no record can be stale, so the sweep would erase nothing and is skipped.
// The answer is exact, not approximate: a skipped sweep and a run one leave
// the table identical.
//
// Contract for an owner: note() every stamp it stores or refreshes, reset()
// on clear, and when a sweep does run, reset() and re-note() the survivors
// so the next skip test starts from exact bounds. Erasing a record without
// a sweep (N4's erase_if, say) may leave the bounds loose; loose bounds only
// cost one sweep that erases nothing.
#pragma once

#include <algorithm>

#include "util/time.hpp"

namespace ssbft {

class StampBounds {
 public:
  void note(LocalTime at) {
    lo_ = std::min(lo_, at);
    hi_ = std::max(hi_, at);
  }

  void reset() { *this = StampBounds{}; }

  /// True when no live stamp is older than now − keep or later than now:
  /// a sweep with that rule would erase nothing. Always true when empty.
  [[nodiscard]] bool within(LocalTime now, Duration keep) const {
    return lo_ >= now - keep && hi_ <= now;
  }

 private:
  LocalTime lo_ = LocalTime::max();
  LocalTime hi_ = LocalTime::min();
};

}  // namespace ssbft
