// Deterministic, splittable pseudo-random generator.
//
// Every simulation run is reproducible from a single 64-bit seed. We use
// xoshiro256** seeded via splitmix64 — fast, well-tested statistically, and
// trivially re-implementable (no dependence on libstdc++'s unspecified
// std::mt19937 distribution behaviour across platforms).
#pragma once

#include <cstdint>

#include "util/assert.hpp"

namespace ssbft {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform over all 64-bit values.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    SSBFT_EXPECTS(bound > 0);
    // Rejection sampling to avoid modulo bias: reject r below
    // 2^64 mod bound (= -bound % bound). That threshold is below `bound`,
    // so a draw r >= bound is accepted without computing it — the common
    // case pays one division, not two.
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= bound || r >= -bound % bound) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    SSBFT_EXPECTS(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    // span == 0 means the full 64-bit range.
    if (span == 0) return static_cast<std::int64_t>(next_u64());
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() { return double(next_u64() >> 11) * 0x1.0p-53; }

  /// true with probability p.
  bool next_bool(double p) { return next_double() < p; }

  /// Exponential with the given mean, truncated to [0, cap].
  double next_exp_truncated(double mean, double cap);

  /// Derive an independent child stream (for per-node / per-link RNGs).
  Rng split();

  /// Derive the canonical `(seed, domain, index)` stream — a pure function
  /// of its arguments, independent of any generator state or draw order.
  /// The simulation engines key every per-entity stream (node behavior RNG,
  /// clock init, per-sender link delays) this way so that a sharded run
  /// samples exactly what the serial run samples, no matter which worker
  /// executes which node. test_shard pins the first draws of these streams.
  [[nodiscard]] static Rng stream(std::uint64_t seed, std::uint64_t domain,
                                  std::uint64_t index);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Stream domains for Rng::stream. One namespace per per-entity stream the
/// engines derive; adding a domain never perturbs existing streams.
enum class RngDomain : std::uint64_t {
  kNodeBehavior = 1,  // NodeContext::rng() handed to the protocol/adversary
  kNodeClock = 2,     // drift rate + initial offset
  kLinkDelay = 3,     // per-SENDER link+processing delay sampling
};

[[nodiscard]] inline Rng rng_stream(std::uint64_t seed, RngDomain domain,
                                    std::uint64_t index) {
  return Rng::stream(seed, static_cast<std::uint64_t>(domain), index);
}

// THE canonical per-node streams. Every component that needs one — the
// serial World, the serial Network, and the sharded engine — must go
// through these two helpers (plus derive_node_clock in sim/world.hpp for
// the clock draws), so the engines cannot drift apart and break the
// sharded-vs-serial bit-parity guarantee. test_shard pins the first draws.

[[nodiscard]] inline Rng derive_node_rng(std::uint64_t seed,
                                         std::uint64_t node) {
  return rng_stream(seed, RngDomain::kNodeBehavior, node);
}

[[nodiscard]] inline Rng derive_link_rng(std::uint64_t seed,
                                         std::uint64_t node) {
  return rng_stream(seed, RngDomain::kLinkDelay, node);
}

}  // namespace ssbft
