// Topology-aware dissemination (sim/topology.hpp): the overlay must change
// WHO fans a broadcast out, never who receives it or what the run computes.
// This file pins the knob validation (malformed overlays refuse to build),
// the degrade rules (degenerate knobs and chaos schedules fall back to the
// flat fan-out — never to wrongness), exact delivery coverage (every node
// receives each broadcast exactly once, with the origin's authenticated
// sender), the overlay counters, and seeded determinism: same seed ⇒ same
// digest on the serial AND sharded engines, for federated and gossip alike.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "sim/tap.hpp"
#include "sim/topology.hpp"
#include "sim/world.hpp"

namespace ssbft {
namespace {

// --- knob validation -------------------------------------------------------

TEST(TopologyValidate, FlatIgnoresKnobs) {
  Scenario sc;
  sc.topology = Topology::kFlat;
  sc.cluster_size = 7;     // ignored under flat
  sc.gossip_fanout = 999;  // ignored under flat
  EXPECT_EQ(sc.validate_topology(), nullptr);
  EXPECT_EQ(sc.effective_topology().kind, Topology::kFlat);
}

TEST(TopologyValidate, FederatedRequiresClusterSize) {
  Scenario sc;
  sc.topology = Topology::kFederated;
  sc.cluster_size = 0;
  EXPECT_NE(sc.validate_topology(), nullptr);
}

TEST(TopologyValidate, ClusterSizeMustDivideN) {
  Scenario sc;
  sc.n = 10;
  sc.topology = Topology::kFederated;
  sc.cluster_size = 3;  // 10 % 3 != 0
  EXPECT_NE(sc.validate_topology(), nullptr);
  sc.cluster_size = 5;
  EXPECT_EQ(sc.validate_topology(), nullptr);
}

TEST(TopologyValidate, GossipRequiresFanout) {
  Scenario sc;
  sc.topology = Topology::kGossip;
  sc.gossip_fanout = 0;
  EXPECT_NE(sc.validate_topology(), nullptr);
  sc.gossip_fanout = 1;
  EXPECT_EQ(sc.validate_topology(), nullptr);
}

TEST(TopologyValidate, MalformedOverlayRefusesToBuild) {
  Scenario sc;
  sc.n = 10;
  sc.topology = Topology::kFederated;
  sc.cluster_size = 3;  // does not divide n: must die at build, not run
  EXPECT_DEATH(Cluster cluster(sc), "precondition");
}

// --- degrade rules ---------------------------------------------------------

TEST(TopologyDegrade, DegenerateKnobsResolveToFlat) {
  // One cluster spanning the world, single-node clusters, and a fanout
  // reaching everyone in one hop are all flat fan-out with extra steps.
  TopologyConfig whole{Topology::kFederated, 16, 0};
  EXPECT_EQ(whole.resolved(16).kind, Topology::kFlat);
  TopologyConfig singleton{Topology::kFederated, 1, 0};
  EXPECT_EQ(singleton.resolved(16).kind, Topology::kFlat);
  TopologyConfig wide{Topology::kGossip, 0, 15};
  EXPECT_EQ(wide.resolved(16).kind, Topology::kFlat);
  // Sound non-degenerate knobs survive resolution unchanged.
  TopologyConfig fed{Topology::kFederated, 4, 0};
  EXPECT_EQ(fed.resolved(16).kind, Topology::kFederated);
  EXPECT_EQ(fed.resolved(16).cluster_size, 4u);
  TopologyConfig gos{Topology::kGossip, 0, 3};
  EXPECT_EQ(gos.resolved(16).kind, Topology::kGossip);
  EXPECT_EQ(gos.resolved(16).fanout, 3u);
}

/// Agreement scenario with a chaos schedule — the case where relay
/// subtrees would silently vanish to per-hop drops.
Scenario chaotic_scenario() {
  Scenario sc;
  sc.n = 12;
  sc.f = 2;
  sc.with_tail_faults(2);
  sc.link_delay =
      DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
  sc.chaos_period = milliseconds(3);
  sc.with_proposal(milliseconds(8), 0, 42);
  sc.run_for = milliseconds(60);
  return sc;
}

TEST(TopologyDegrade, ChaosDegradesGossipToFlat) {
  Scenario sc = chaotic_scenario();
  sc.topology = Topology::kGossip;
  sc.gossip_fanout = 3;
  EXPECT_EQ(sc.effective_topology().kind, Topology::kFlat);

  // The degraded run IS the flat run, bit for bit — never a third behavior.
  Scenario flat = chaotic_scenario();
  const SweepRun gossip_run = SweepRunner::run_cell(sc, 21);
  const SweepRun flat_run = SweepRunner::run_cell(flat, 21);
  EXPECT_EQ(gossip_run.digest, flat_run.digest);
  EXPECT_EQ(gossip_run.events, flat_run.events);
  EXPECT_EQ(gossip_run.messages, flat_run.messages);
}

TEST(TopologyDegrade, ChaosDegradesFederatedToFlat) {
  Scenario sc = chaotic_scenario();
  sc.topology = Topology::kFederated;
  sc.cluster_size = 4;
  EXPECT_EQ(sc.effective_topology().kind, Topology::kFlat);
  const SweepRun fed_run = SweepRunner::run_cell(sc, 21);
  const SweepRun flat_run = SweepRunner::run_cell(chaotic_scenario(), 21);
  EXPECT_EQ(fed_run.digest, flat_run.digest);
}

// --- delivery coverage -----------------------------------------------------

struct Coverage {
  std::vector<std::uint32_t> delivered_to;  // per-destination copy count
  std::uint32_t relayed_copies = 0;         // delivered with route != 0
  NetworkStats stats{};
};

/// Drive ONE send_all through a bare serial World under `topo` and tap
/// every delivery.
Coverage broadcast_coverage(const TopologyConfig& topo, std::uint32_t n,
                            NodeId origin) {
  WorldConfig wc;
  wc.n = n;
  wc.seed = 7;
  wc.topology = topo;
  World world(wc);
  Coverage cov;
  cov.delivered_to.assign(n, 0);
  world.network().set_tap([&](const TapEvent& e) {
    if (e.kind != TapEvent::Kind::kDelivered) return;
    ++cov.delivered_to[e.to];
    if (e.msg.route != kRouteDirect) ++cov.relayed_copies;
    // Relays forward the ORIGIN's authenticated identity, never their own.
    EXPECT_EQ(e.msg.sender, origin);
  });
  WireMessage msg;
  msg.kind = MsgKind::kSupport;
  msg.value = 42;
  world.network().send_all(origin, msg);
  world.run_to_quiescence(RealTime::zero() + seconds(1));
  cov.stats = world.net_stats();
  return cov;
}

TEST(TopologyCoverage, FederatedDeliversExactlyOnceEverywhere) {
  const std::uint32_t n = 12, c = 4;
  const Coverage cov =
      broadcast_coverage(TopologyConfig{Topology::kFederated, c, 0}, n, 5);
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_EQ(cov.delivered_to[id], 1u) << "dest " << id;
  }
  // Origin out-degree: own cluster (4) + other reps (2); reps forward 3
  // copies each. Representative copies are the only route-marked arrivals.
  EXPECT_EQ(cov.stats.sent, c + (n / c - 1));
  EXPECT_EQ(cov.stats.fanout_msgs, (n / c - 1) * (c - 1));
  EXPECT_EQ(cov.stats.topology_hops, n / c - 1);
  EXPECT_EQ(cov.stats.delivered, n);
  EXPECT_EQ(cov.relayed_copies, n / c - 1);
}

TEST(TopologyCoverage, GossipDeliversExactlyOnceEverywhere) {
  const std::uint32_t n = 13;
  const Coverage cov =
      broadcast_coverage(TopologyConfig{Topology::kGossip, 0, 3}, n, 9);
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_EQ(cov.delivered_to[id], 1u) << "dest " << id;
  }
  // The origin sends exactly one self-rooted copy; relays fan out the
  // remaining n − 1, and EVERY copy carries the gossip route marker.
  EXPECT_EQ(cov.stats.sent, 1u);
  EXPECT_EQ(cov.stats.fanout_msgs, n - 1);
  EXPECT_EQ(cov.stats.delivered, n);
  EXPECT_EQ(cov.relayed_copies, n);
}

TEST(TopologyCoverage, FlatKeepsCountersZero) {
  const Coverage cov = broadcast_coverage(TopologyConfig{}, 8, 3);
  for (NodeId id = 0; id < 8; ++id) EXPECT_EQ(cov.delivered_to[id], 1u);
  EXPECT_EQ(cov.stats.sent, 8u);
  EXPECT_EQ(cov.stats.topology_hops, 0u);
  EXPECT_EQ(cov.stats.fanout_msgs, 0u);
  EXPECT_EQ(cov.relayed_copies, 0u);
}

TEST(TopologyCoverage, UnicastNeverCarriesRelayDuty) {
  // A behavior echoing a received copy back out must not re-disseminate:
  // the unicast path stamps kRouteDirect whatever the overlay.
  WorldConfig wc;
  wc.n = 9;
  wc.seed = 7;
  wc.topology = TopologyConfig{Topology::kGossip, 0, 2};
  World world(wc);
  std::uint32_t delivered = 0;
  world.network().set_tap([&](const TapEvent& e) {
    if (e.kind != TapEvent::Kind::kDelivered) return;
    ++delivered;
    EXPECT_EQ(e.msg.route, kRouteDirect);
  });
  WireMessage msg;
  msg.kind = MsgKind::kReady;
  world.network().send(2, 6, msg);
  world.run_to_quiescence(RealTime::zero() + seconds(1));
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(world.net_stats().fanout_msgs, 0u);
}

// --- seeded determinism across engines ------------------------------------

/// Agreement workload on a non-flat overlay. No chaos (chaos degrades to
/// flat by design), positive delay floor so the sharded engine engages.
Scenario overlay_scenario(Topology topology) {
  Scenario sc;
  sc.n = 48;
  sc.f = 4;
  sc.with_tail_faults(4);
  sc.link_delay =
      DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
  sc.adversary = AdversaryKind::kNoise;
  sc.adversary_period = milliseconds(2);
  sc.auth = AuthKind::kHmac;
  sc.payload_bytes = 48;
  sc.topology = topology;
  sc.cluster_size = 8;
  sc.gossip_fanout = 4;
  sc.with_proposal(milliseconds(5), 0, 42);
  sc.with_proposal(milliseconds(25), 1, 43);
  sc.run_for = milliseconds(60);
  return sc;
}

TEST(TopologyDeterminism, SameSeedSameDigestAndEngineParity) {
  for (const Topology topology : {Topology::kFederated, Topology::kGossip}) {
    const Scenario serial_sc = overlay_scenario(topology);
    const SweepRun serial = SweepRunner::run_cell(serial_sc, 21);
    const SweepRun again = SweepRunner::run_cell(serial_sc, 21);
    EXPECT_EQ(serial.digest, again.digest) << to_string(topology);
    EXPECT_NE(serial.digest, 0u) << to_string(topology);

    for (const std::uint32_t shards : {2u, 4u}) {
      Scenario sc = overlay_scenario(topology);
      sc.shards = shards;
      const SweepRun run = SweepRunner::run_cell(sc, 21);
      EXPECT_EQ(run.digest, serial.digest)
          << to_string(topology) << " shards " << shards;
      EXPECT_EQ(run.events, serial.events)
          << to_string(topology) << " shards " << shards;
      EXPECT_EQ(run.messages, serial.messages)
          << to_string(topology) << " shards " << shards;
    }
  }

  // Whole wire-counter parity: HMAC tags, pooled bodies (above the inline
  // capacity) and forged plants from a transient scramble, so every
  // counter — overlay hops and fan-out, per-kind sends, payload bytes,
  // auth rejections — is exercised on both engines and must agree field
  // by field, not just in the digest's subset.
  for (const Topology topology : {Topology::kFederated, Topology::kGossip}) {
    Scenario base = overlay_scenario(topology);
    base.auth = AuthKind::kHmac;
    base.payload_bytes = 300;
    base.transient_scramble = true;
    const auto run = [](const Scenario& sc) {
      Cluster cluster(sc);
      cluster.run();
      return std::pair{run_digest(cluster.probe(), cluster.world().net_stats()),
                       cluster.world().net_stats()};
    };
    const auto [serial_digest, serial_stats] = run(base);
    EXPECT_GT(serial_stats.topology_hops, 0u) << to_string(topology);
    EXPECT_GT(serial_stats.fanout_msgs, 0u) << to_string(topology);
    EXPECT_GT(serial_stats.auth_rejected, 0u) << to_string(topology);
    EXPECT_GT(serial_stats.payload_bytes, 0u) << to_string(topology);
    for (const std::uint32_t shards : {2u, 4u}) {
      Scenario sc = base;
      sc.shards = shards;
      const auto [digest, stats] = run(sc);
      EXPECT_EQ(digest, serial_digest)
          << to_string(topology) << " shards " << shards;
      EXPECT_EQ(stats, serial_stats)
          << to_string(topology) << " shards " << shards;
    }
  }
}

TEST(TopologyDeterminism, OverlaysProduceDistinctSchedulesFromFlat) {
  // Sanity that the overlay actually engaged: the relayed schedule is a
  // different (still deterministic) history, not flat-with-extra-counters.
  Scenario flat_sc = overlay_scenario(Topology::kFederated);
  flat_sc.topology = Topology::kFlat;
  const SweepRun flat = SweepRunner::run_cell(flat_sc, 21);
  const SweepRun fed =
      SweepRunner::run_cell(overlay_scenario(Topology::kFederated), 21);
  EXPECT_NE(fed.digest, flat.digest);
}

TEST(TopologyEnums, ToStringCoversEveryTopology) {
  for (std::uint32_t t = 0; t < kTopologyCount; ++t) {
    EXPECT_STRNE(to_string(Topology(t)), "?");
  }
}

}  // namespace
}  // namespace ssbft
