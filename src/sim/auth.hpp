// Pluggable message authentication (paper Def. 2.2).
//
// The model is authenticated-Byzantine: the adversary may delay, drop,
// replay, and garble traffic, but can only forge what the authentication
// scheme permits. Two schemes:
//
//   kNull  the legacy model — no tags, everything verifies. Sender
//          authenticity still holds for non-faulty traffic (the Network
//          overwrites msg.sender at send), but transient garbage and
//          chaos-corrupted copies are delivered as-is.
//   kHmac  a cheap deterministic HMAC-style tag: send paths sign at origin
//          with a per-sender key derived from (key_seed, sender), delivery
//          verifies, and a failed check is counted/traced and the message
//          discarded — never handed to the behavior. The fault injector and
//          the chaos corrupter know no keys, so the garbage they mint is
//          rejected; a Byzantine NODE still signs validly as itself (it owns
//          its key — authentication bounds impersonation, not malice).
//
// The tag is a pure function of the signed content (header fields + payload
// checksum + per-sender key), so verification is engine- and thread-
// independent: serial, sharded, and duty-cycle runs reject the exact same
// deliveries and digests stay bit-identical.
#pragma once

#include <cstdint>

#include "sim/wire.hpp"

namespace ssbft {

enum class AuthKind : std::uint8_t {
  kNull,
  kHmac,
};

/// Number of AuthKind enumerators (test_enums checks that to_string covers
/// exactly this many).
inline constexpr std::uint32_t kAuthKindCount = 2;

[[nodiscard]] const char* to_string(AuthKind kind);

class Authenticator {
 public:
  /// Default: the null scheme (everything verifies).
  Authenticator() = default;
  Authenticator(AuthKind kind, std::uint64_t key_seed);

  [[nodiscard]] AuthKind kind() const { return kind_; }

  /// The tag the configured scheme expects on `msg` (sender must already be
  /// set — the tag binds it). Never 0 under kHmac, so an untagged forgery
  /// (auth == 0) can never verify by accident.
  [[nodiscard]] std::uint64_t tag(const WireMessage& msg) const;

  /// Stamp msg.auth at origin. kNull leaves it 0.
  void sign(WireMessage& msg) const;

  /// Delivery-side check. kNull always passes.
  [[nodiscard]] bool verify(const WireMessage& msg) const;

 private:
  AuthKind kind_ = AuthKind::kNull;
  std::uint64_t key_mix_ = 0;  // mix(key_seed), the tag chain's first link
};

}  // namespace ssbft
