// Topology-aware dissemination for broadcast fan-out.
//
// Network::send_all (the one wire layer both engines route through)
// historically fans a broadcast out as n independent unicasts — O(n) work
// at the ORIGIN per broadcast, which is the scaling wall for 10k-node
// worlds (every broadcaster pays n sends, and the origin's in-flight burst
// peaks at n copies). The topology axis keeps the
// destination set identical (every node still receives exactly one copy)
// while moving the fan-out work onto an overlay:
//
//   kFlat       all-to-all, the historical behavior; byte-identical to the
//               pre-topology engine (digest parity is pinned).
//   kFederated  two-level clusters of `cluster_size` contiguous nodes. The
//               origin sends direct copies to its own cluster and one
//               representative copy to the FIRST node of every other
//               cluster; each representative forwards direct copies to its
//               cluster-mates. Origin out-degree: cluster_size + n/cluster
//               − 1 instead of n; every copy travels ≤ 2 hops.
//   kGossip     a fanout-ary relay tree over the virtual ring rooted at the
//               origin (heap numbering: position v forwards to v·f+1 …
//               v·f+f). Origin out-degree 1, relay out-degree ≤ fanout,
//               depth ⌈log_f n⌉.
//
// Relaying is a NETWORK-layer overlay, not a protocol change: a forwarded
// copy preserves the origin's authenticated sender and tag (the relay
// forwards bytes, it cannot re-sign), and relay nodes forward faithfully
// even when their behavior is Byzantine — the adversary model still attacks
// through protocol messages, not through the simulated switch fabric. The
// WireMessage::route marker carries the relay duty; it is outside the
// authenticated field set and outside run_digest.
//
// Relayed dissemination stretches the effective delivery bound: a copy may
// traverse up to 2 (federated) or ⌈log_f n⌉ (gossip) sampled link+proc
// delays. The protocol's Φ = 8d budget absorbs the federated hop; gossip at
// depth is a bandwidth/latency trade the harness exposes but does not hide
// (docs/ARCHITECTURE.md, "Topology & dissemination").
#pragma once

#include <cstdint>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace ssbft {

enum class Topology : std::uint8_t {
  kFlat,
  kFederated,
  kGossip,
};

/// Number of Topology enumerators (test_enums checks to_string coverage).
inline constexpr std::uint32_t kTopologyCount = 3;

[[nodiscard]] const char* to_string(Topology topology);

/// WireMessage::route markers. kRouteDirect copies are final deliveries;
/// the other two carry relay duty executed by the receiver at the delivery
/// instant (before its behavior sees the copy).
inline constexpr std::uint8_t kRouteDirect = 0;     // no relay duty
inline constexpr std::uint8_t kRouteGossip = 1;     // forward to tree children
inline constexpr std::uint8_t kRouteFederated = 2;  // rep: fan to cluster

struct TopologyConfig {
  Topology kind = Topology::kFlat;
  /// kFederated: nodes per cluster (contiguous ids; must divide n).
  std::uint32_t cluster_size = 0;
  /// kGossip: relay-tree arity (≥ 1).
  std::uint32_t fanout = 0;

  [[nodiscard]] bool active() const { return kind != Topology::kFlat; }

  /// Validate against a world of `n` nodes and normalize. Malformed knobs
  /// (federated cluster_size of 0 or not dividing n; gossip fanout of 0)
  /// are hard precondition failures — a misconfigured overlay must never
  /// silently run. DEGENERATE-but-sound knobs degrade to kFlat, never to
  /// wrongness: one cluster spanning the world, single-node clusters, or a
  /// gossip fanout reaching everyone in one hop are all just flat fan-out
  /// with extra steps.
  [[nodiscard]] TopologyConfig resolved(std::uint32_t n) const {
    TopologyConfig out = *this;
    switch (kind) {
      case Topology::kFlat:
        out.cluster_size = 0;
        out.fanout = 0;
        return out;
      case Topology::kFederated:
        SSBFT_EXPECTS(cluster_size > 0);
        SSBFT_EXPECTS(n % cluster_size == 0);
        out.fanout = 0;
        if (cluster_size <= 1 || cluster_size >= n) return TopologyConfig{};
        return out;
      case Topology::kGossip:
        SSBFT_EXPECTS(fanout > 0);
        out.cluster_size = 0;
        if (n <= 1 || fanout >= n - 1) return TopologyConfig{};
        return out;
    }
    return TopologyConfig{};
  }
};

/// Origin fan-out of one send_all under `topo` (already resolved): invoke
/// `emit(dest, route)` once per copy the ORIGIN itself puts on the wire, in
/// ascending destination order (determinism: the emission order is part of
/// the origin's key/stream draw order). kFlat emits the historical
/// all-to-all loop.
template <class Emit>
void topology_origin_targets(const TopologyConfig& topo, std::uint32_t n,
                             NodeId from, Emit&& emit) {
  switch (topo.kind) {
    case Topology::kFlat:
      for (NodeId dest = 0; dest < n; ++dest) emit(dest, kRouteDirect);
      return;
    case Topology::kGossip:
      // One self-addressed copy roots the relay tree: the origin occupies
      // virtual position 0 and forwards to its children on delivery, so
      // origin fan-out work is O(1) per broadcast.
      emit(from, kRouteGossip);
      return;
    case Topology::kFederated: {
      const NodeId own_first = from - (from % topo.cluster_size);
      for (NodeId dest = 0; dest < n; ++dest) {
        if (dest >= own_first && dest < own_first + topo.cluster_size) {
          emit(dest, kRouteDirect);  // own cluster (self included): direct
        } else if (dest % topo.cluster_size == 0) {
          emit(dest, kRouteFederated);  // other cluster's representative
        }
      }
      return;
    }
  }
}

/// Relay duty of node `self` upon delivering a copy with route marker
/// `route` from authenticated origin `origin`: invoke `emit(dest, route)`
/// per forwarded copy, in deterministic order. A kRouteDirect copy (or a
/// marker that does not match the configured topology — possible only for
/// fault-injector plants) carries no duty.
template <class Emit>
void topology_relay_targets(const TopologyConfig& topo, std::uint32_t n,
                            NodeId self, NodeId origin, std::uint8_t route,
                            Emit&& emit) {
  if (route == kRouteGossip && topo.kind == Topology::kGossip) {
    // Heap-numbered fanout-ary tree over the virtual ring rooted at the
    // origin: self sits at position v, forwards to v·f+1 … v·f+f. The `% n`
    // clamp keeps a forged origin (e.g. kNoNode) deterministic and bounded.
    const std::uint64_t root = origin % n;
    const std::uint64_t v = (std::uint64_t(self) + n - root) % n;
    for (std::uint32_t j = 1; j <= topo.fanout; ++j) {
      const std::uint64_t child = v * topo.fanout + j;
      if (child >= n) break;
      emit(NodeId((root + child) % n), kRouteGossip);
    }
    return;
  }
  if (route == kRouteFederated && topo.kind == Topology::kFederated) {
    // Representative copy: fan direct copies to the cluster-mates. Self
    // keeps its own copy (delivered normally after this duty runs).
    const NodeId own_first = self - (self % topo.cluster_size);
    for (NodeId dest = own_first; dest < own_first + topo.cluster_size;
         ++dest) {
      if (dest != self) emit(dest, kRouteDirect);
    }
  }
}

}  // namespace ssbft
