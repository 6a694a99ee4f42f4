#include "sim/auth.hpp"

namespace ssbft {

const char* to_string(AuthKind kind) {
  switch (kind) {
    case AuthKind::kNull: return "null";
    case AuthKind::kHmac: return "hmac";
  }
  return "?";
}

namespace {

std::uint64_t mix(std::uint64_t x) {
  // splitmix64 finalizer: cheap, well-distributed, deterministic.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Authenticator::Authenticator(AuthKind kind, std::uint64_t key_seed)
    : kind_(kind), key_mix_(mix(key_seed)) {}

std::uint64_t Authenticator::tag(const WireMessage& msg) const {
  if (kind_ == AuthKind::kNull) return 0;
  // Per-sender key: forging another sender's tag requires that sender's
  // key, which only the network's signing path holds.
  std::uint64_t h = mix(key_mix_ ^ msg.sender);
  h = mix(h ^ std::uint64_t(msg.kind));
  h = mix(h ^ msg.sender);
  h = mix(h ^ msg.general.node);
  h = mix(h ^ msg.value);
  h = mix(h ^ msg.broadcaster);
  h = mix(h ^ msg.round);
  h = mix(h ^ msg.payload.checksum() ^ msg.payload.size());
  return h == 0 ? 1 : h;  // reserve 0 for "untagged"
}

void Authenticator::sign(WireMessage& msg) const {
  if (kind_ == AuthKind::kNull) return;
  msg.auth = tag(msg);
}

bool Authenticator::verify(const WireMessage& msg) const {
  if (kind_ == AuthKind::kNull) return true;
  return msg.auth == tag(msg);
}

}  // namespace ssbft
