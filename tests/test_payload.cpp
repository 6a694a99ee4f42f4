// The zero-copy authenticated payload pipeline (sim/payload.hpp,
// sim/auth.hpp): pool ownership and refcounting, the authenticator's
// bind-everything tag, forged-traffic rejection, the no-leak invariant
// after chaos + duty-cycle runs on every engine, and the acceptance
// parity matrix — all six StackKinds × shard counts with payloads and
// authentication enabled, bit-identical to serial.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/sweep.hpp"
#include "sim/auth.hpp"
#include "sim/duty_world.hpp"
#include "sim/fault_injector.hpp"
#include "sim/payload.hpp"
#include "sim/shard_world.hpp"

namespace ssbft {
namespace {

// --- Payload / pool units ---------------------------------------------------

TEST(PayloadTest, InlineAtThresholdPooledAbove) {
  const Payload inline_body =
      make_patterned_payload(Payload::kInlineCapacity, 1);
  EXPECT_FALSE(inline_body.pooled());
  EXPECT_EQ(inline_body.size(), Payload::kInlineCapacity);

  const std::uint32_t live_before = payload_pool().live();
  {
    const Payload pooled_body =
        make_patterned_payload(Payload::kInlineCapacity + 1, 1);
    EXPECT_TRUE(pooled_body.pooled());
    EXPECT_EQ(payload_pool().live(), live_before + 1);
  }
  EXPECT_EQ(payload_pool().live(), live_before);

  EXPECT_TRUE(Payload{}.empty());
  EXPECT_EQ(Payload{}.checksum(), 0u);
}

TEST(PayloadTest, CopySharesPooledBytesWithoutCopying) {
  const std::uint32_t size = Payload::kInlineCapacity + 100;
  const std::uint32_t live_before = payload_pool().live();
  const std::uint64_t copied_before = payload_pool().bytes_copied();

  Payload original = make_patterned_payload(size, 7);
  EXPECT_EQ(payload_pool().bytes_copied(), copied_before + size);
  EXPECT_EQ(payload_pool().live(), live_before + 1);

  {
    // N handle copies: zero extra bytes, zero extra slots.
    Payload copies[8];
    for (Payload& c : copies) c = original;
    EXPECT_EQ(payload_pool().bytes_copied(), copied_before + size);
    EXPECT_EQ(payload_pool().live(), live_before + 1);
    for (const Payload& c : copies) {
      EXPECT_EQ(c, original);
      EXPECT_EQ(c.data(), original.data());  // literally the same bytes
    }
    // A move transfers the reference instead of bumping it.
    Payload moved = std::move(copies[0]);
    EXPECT_TRUE(copies[0].empty());
    EXPECT_EQ(moved, original);
    EXPECT_EQ(payload_pool().live(), live_before + 1);
  }
  // The copies died; the original still pins the slot.
  EXPECT_EQ(payload_pool().live(), live_before + 1);
  original = Payload{};
  EXPECT_EQ(payload_pool().live(), live_before);
}

TEST(PayloadTest, ComparedByContentNotStorage) {
  const Payload a = make_patterned_payload(200, 3);
  const Payload b = make_patterned_payload(200, 3);  // distinct slot
  const Payload c = make_patterned_payload(200, 4);
  const Payload d = make_patterned_payload(199, 3);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(PayloadTest, PatternedPayloadIsDeterministic) {
  // Same (size, tag) anywhere — any engine, any thread — same bytes.
  const Payload a = make_patterned_payload(300, 0xdeadbeef);
  const Payload b = make_patterned_payload(300, 0xdeadbeef);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.checksum(), payload_fnv(b.data(), b.size()));
}

// Shard workers acquire, copy and release pooled bodies concurrently. The
// pool's chunk directory must therefore stay readable while another thread
// grows it: every reader (data, size, checksum, add_ref, release) indexes
// the directory without the pool lock. Each thread ramps up thousands of
// live slots so the directory grows while its peers read — ThreadSanitizer
// flags any growth that moves the directory under a reader.
TEST(PayloadTest, ConcurrentAcquireCopyReleaseKeepsContent) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kLivePerThread = 4096;
  constexpr std::uint32_t kRounds = 3;
  const std::uint32_t live_before = payload_pool().live();
  std::atomic<std::uint32_t> ready{0};
  std::atomic<std::uint64_t> mismatches{0};
  const auto worker = [&](std::uint32_t t) {
    ready.fetch_add(1);
    while (ready.load() < kThreads) std::this_thread::yield();
    std::uint64_t bad = 0;
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      std::vector<Payload> held;
      held.reserve(kLivePerThread);
      for (std::uint32_t i = 0; i < kLivePerThread; ++i) {
        const std::uint32_t size = Payload::kInlineCapacity + 1 + i % 97;
        const std::uint64_t tag = (std::uint64_t(t) << 32) | (round << 16) | i;
        held.push_back(make_patterned_payload(size, tag));
        // Copy a slot handed out earlier while peers keep growing the pool.
        const Payload copy = held[i / 2];
        bad += copy.checksum() != payload_fnv(copy.data(), copy.size());
        bad += !(copy == held[i / 2]);
      }
      // Release in an interleaved order so peers recycle each other's
      // free-list entries.
      for (std::uint32_t i = 0; i < kLivePerThread; i += 2) held[i] = Payload{};
    }
    mismatches.fetch_add(bad);
  };
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < kThreads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(payload_pool().live(), live_before);
}

// --- Authenticator units ----------------------------------------------------

WireMessage signed_message() {
  WireMessage msg;
  msg.kind = MsgKind::kSupport;
  msg.sender = 3;
  msg.general = GeneralId{1};
  msg.value = 42;
  msg.broadcaster = 2;
  msg.round = 5;
  msg.payload = make_patterned_payload(80, 11);
  return msg;
}

TEST(AuthenticatorTest, TagIsDeterministicAndNeverZero) {
  const Authenticator auth(AuthKind::kHmac, 1234);
  const WireMessage msg = signed_message();
  const std::uint64_t tag = auth.tag(msg);
  EXPECT_NE(tag, 0u);
  EXPECT_EQ(tag, auth.tag(msg));
  EXPECT_EQ(tag, Authenticator(AuthKind::kHmac, 1234).tag(msg));

  WireMessage stamped = msg;
  auth.sign(stamped);
  EXPECT_EQ(stamped.auth, tag);
  EXPECT_TRUE(auth.verify(stamped));
  // An untagged copy (auth == 0) can never verify under kHmac.
  EXPECT_FALSE(auth.verify(msg));
}

TEST(AuthenticatorTest, TagBindsEveryFieldAndTheKey) {
  const Authenticator auth(AuthKind::kHmac, 1234);
  WireMessage msg = signed_message();
  auth.sign(msg);

  const auto rejects = [&](WireMessage tampered) {
    return !auth.verify(tampered);
  };
  WireMessage t;

  t = msg;
  t.kind = MsgKind::kReady;
  EXPECT_TRUE(rejects(t)) << "kind";
  t = msg;
  t.sender = 4;  // impersonation: a different sender needs a different key
  EXPECT_TRUE(rejects(t)) << "sender";
  t = msg;
  t.general = GeneralId{2};
  EXPECT_TRUE(rejects(t)) << "general";
  t = msg;
  t.value = 43;
  EXPECT_TRUE(rejects(t)) << "value";
  t = msg;
  t.broadcaster = 6;
  EXPECT_TRUE(rejects(t)) << "broadcaster";
  t = msg;
  t.round = 6;
  EXPECT_TRUE(rejects(t)) << "round";
  t = msg;
  t.payload = make_patterned_payload(80, 12);  // same size, other bytes
  EXPECT_TRUE(rejects(t)) << "payload bytes";
  t = msg;
  t.payload = Payload{};
  EXPECT_TRUE(rejects(t)) << "payload stripped";

  // A different key seed signs a different universe of tags.
  EXPECT_FALSE(Authenticator(AuthKind::kHmac, 1235).verify(msg));
}

TEST(AuthenticatorTest, NullSchemeAcceptsAnything) {
  const Authenticator auth(AuthKind::kNull, 1234);
  WireMessage msg = signed_message();
  msg.auth = 0xabcdef;  // garbage tag
  EXPECT_TRUE(auth.verify(msg));
  EXPECT_EQ(auth.tag(msg), 0u);
  auth.sign(msg);
  EXPECT_EQ(msg.auth, 0xabcdefu);  // sign is a no-op, it does not zero
}

// --- forged-traffic rejection on the wire -----------------------------------

/// Counts deliveries — the victim of forged plants.
class CountingBehavior final : public NodeBehavior {
 public:
  void on_start(NodeContext&) override {}
  void on_message(NodeContext&, const WireMessage&) override { ++received; }
  void on_timer(NodeContext&, std::uint64_t) override {}
  std::uint32_t received = 0;
};

TEST(AuthRejectTest, ForgedPlantIsDiscardedUnderHmacDeliveredUnderNull) {
  for (const AuthKind kind : {AuthKind::kNull, AuthKind::kHmac}) {
    WorldConfig wc;
    wc.n = 2;
    wc.seed = 77;
    wc.auth = kind;
    World world(wc);
    auto counter = std::make_unique<CountingBehavior>();
    CountingBehavior* victim = counter.get();
    world.set_behavior(0, std::make_unique<CountingBehavior>());
    world.set_behavior(1, std::move(counter));
    world.start();

    // A fault-injector plant: forged sender, garbage tag.
    WireMessage forged = signed_message();
    forged.auth = 0x1111;
    world.inject_raw(1, forged, milliseconds(1));
    world.run_until(RealTime::zero() + milliseconds(10));

    const NetworkStats stats = world.net_stats();
    EXPECT_EQ(stats.forged, 1u) << to_string(kind);
    if (kind == AuthKind::kHmac) {
      EXPECT_EQ(victim->received, 0u);
      EXPECT_EQ(stats.auth_rejected, 1u);
    } else {
      EXPECT_EQ(victim->received, 1u);
      EXPECT_EQ(stats.auth_rejected, 0u);
    }
  }
}

TEST(AuthRejectTest, LegitimateTrafficPassesUnderHmac) {
  /// Sends one signed message at start; the network signs at admission.
  class Sender final : public NodeBehavior {
   public:
    void on_start(NodeContext& ctx) override {
      WireMessage msg;
      msg.value = 9;
      msg.payload = make_patterned_payload(128, 9);
      ctx.send(1, msg);
    }
    void on_message(NodeContext&, const WireMessage&) override {}
    void on_timer(NodeContext&, std::uint64_t) override {}
  };

  WorldConfig wc;
  wc.n = 2;
  wc.seed = 78;
  wc.auth = AuthKind::kHmac;
  World world(wc);
  auto counter = std::make_unique<CountingBehavior>();
  CountingBehavior* receiver = counter.get();
  world.set_behavior(0, std::make_unique<Sender>());
  world.set_behavior(1, std::move(counter));
  world.start();
  world.run_until(RealTime::zero() + milliseconds(10));

  EXPECT_EQ(receiver->received, 1u);
  EXPECT_EQ(world.net_stats().auth_rejected, 0u);
  EXPECT_EQ(world.net_stats().delivered, 1u);
}

// --- scenario shaping for the engine-level pins -----------------------------

/// The test_shard scenario shape with the payload pipeline switched on:
/// pooled-size command bodies on every proposal and the keyed scheme
/// guarding every delivery.
Scenario payload_scenario(StackKind stack, std::uint32_t shards) {
  Scenario sc;
  sc.stack = stack;
  sc.n = 8;
  sc.f = 2;
  sc.with_tail_faults(2);
  sc.shards = shards;
  sc.auth = AuthKind::kHmac;
  sc.payload_bytes = Payload::kInlineCapacity + 32;  // forced through the pool
  sc.link_delay =
      DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
  sc.adversary = stack == StackKind::kBaselineTps ? AdversaryKind::kSilent
                                                  : AdversaryKind::kNoise;
  sc.adversary_period = milliseconds(2);
  const Params params = sc.make_params();
  switch (stack) {
    case StackKind::kAgree:
      sc.with_proposal(milliseconds(2), 0, 42);
      sc.with_proposal(milliseconds(40), 1, 43);
      sc.run_for = milliseconds(150);
      break;
    case StackKind::kBaselineTps:
      sc.with_proposal(milliseconds(1), 0, 7);
      sc.run_for = milliseconds(120);
      break;
    case StackKind::kReplicatedLog:
    case StackKind::kPipelinedLog:
      for (std::uint32_t c = 0; c < 3; ++c) {
        sc.with_proposal(Duration::zero(), NodeId(c), 100 + c);
      }
      sc.run_for =
          6 * (params.delta_0() + params.delta_agr() + 10 * params.d());
      break;
    case StackKind::kPulse:
    case StackKind::kClockSync:
      sc.run_for =
          params.delta_stb() + 10 * 2 * (params.delta_0() + params.delta_agr());
      break;
  }
  return sc;
}

/// payload_scenario plus the stabilization-measurement shape: a transient
/// scramble and a chaos window (with shards > 0 this selects the
/// alternating DutyWorld engine).
Scenario payload_chaos_scenario(StackKind stack, std::uint32_t shards) {
  Scenario sc = payload_scenario(stack, shards);
  sc.chaos_period = milliseconds(5);
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 16;
  return sc;
}

// Chaos minting (fault-injector plants, corrupted copies, tag tampering)
// knows no keys: a scrambled chaotic run under kHmac must reject traffic,
// and must reject the exact same deliveries on every engine.
TEST(AuthRejectTest, ChaosForgeryRejectionsMatchOnEveryEngine) {
  const auto run = [](std::uint32_t shards) {
    Scenario sc = payload_chaos_scenario(StackKind::kAgree, shards);
    Cluster cluster(sc);
    cluster.run();
    struct Out {
      std::uint64_t digest, rejected, forged;
    };
    return Out{evaluate_stack(cluster).digest,
               cluster.world().net_stats().auth_rejected,
               cluster.world().net_stats().forged};
  };
  const auto serial = run(0);
  EXPECT_GT(serial.rejected, 0u);
  EXPECT_GT(serial.forged, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    const auto sharded = run(shards);
    EXPECT_EQ(sharded.digest, serial.digest) << "shards " << shards;
    EXPECT_EQ(sharded.rejected, serial.rejected) << "shards " << shards;
    EXPECT_EQ(sharded.forged, serial.forged) << "shards " << shards;
  }
}

// --- the no-leak invariant --------------------------------------------------

// After a chaos + duty-cycle run on EVERY engine — serial, sharded, and
// alternating — destroying the cluster releases every pool slot: the
// engines' queue closures, the migration snapshots, and the app stacks'
// pending queues were the only owners.
TEST(PoolLeakTest, NoLivePayloadsAfterChaosDutyRunsOnEveryEngine) {
  struct Case {
    const char* label;
    std::uint32_t shards;
    std::uint32_t chaos_count;
  };
  const Case cases[] = {
      {"serial + chaos", 0, 2},
      {"sharded, no chaos", 4, 0},
      {"alternating duty cycle", 4, 2},
  };
  for (const Case& c : cases) {
    for (const StackKind stack :
         {StackKind::kAgree, StackKind::kReplicatedLog,
          StackKind::kPipelinedLog}) {
      {
        Scenario sc = c.chaos_count > 0
                          ? payload_chaos_scenario(stack, c.shards)
                          : payload_scenario(stack, c.shards);
        sc.chaos_count = c.chaos_count;
        Cluster cluster(sc);
        cluster.run();
        // Payload traffic actually flowed. Checked on the log stacks only:
        // they re-propose after a pacing refusal, so a scramble can never
        // starve the run of bodies (kAgree's one-shot proposals can be
        // refused while healing).
        if (stack != StackKind::kAgree) {
          EXPECT_GT(cluster.world().net_stats().payload_bytes, 0u)
              << c.label << " " << to_string(stack);
        }
      }
      EXPECT_EQ(payload_pool().live(), 0u)
          << c.label << " " << to_string(stack);
    }
  }
}

// --- the acceptance parity matrix -------------------------------------------

// All six StackKinds × shards ∈ {1, 2, 4} with pooled payloads AND the
// keyed scheme on: digests (which now fold in payload checksums and the
// auth/payload wire counters) bit-identical to the serial twin.
TEST(PayloadParity, EveryStackMatchesSerialWithPayloadsAndAuth) {
  for (std::uint32_t k = 0; k < kStackKindCount; ++k) {
    const Scenario serial_sc = payload_scenario(StackKind(k), 0);
    const SweepRun serial = SweepRunner::run_cell(serial_sc, 21);
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      const Scenario sc = payload_scenario(StackKind(k), shards);
      const SweepRun run = SweepRunner::run_cell(sc, 21);
      const auto label = [&] {
        return std::string(to_string(StackKind(k))) + " shards " +
               std::to_string(shards);
      };
      EXPECT_EQ(run.digest, serial.digest) << label();
      EXPECT_EQ(run.events, serial.events) << label();
      EXPECT_EQ(run.messages, serial.messages) << label();
      EXPECT_EQ(run.pass, serial.pass) << label();
    }
  }
  EXPECT_EQ(payload_pool().live(), 0u);
}

// The log stacks surface the agreed command bodies: every committed entry
// carries the checksum of the payload that rode its Initiator broadcast,
// and the digest moves when payloads are enabled (the bodies are part of
// the observable history, not dead freight).
TEST(PayloadParity, CommittedEntriesCarryPayloadChecksums) {
  Scenario sc = payload_scenario(StackKind::kReplicatedLog, 0);
  Cluster cluster(sc);
  cluster.run();
  const auto& commits = cluster.probe().commits();
  ASSERT_FALSE(commits.empty());
  const std::uint64_t expected =
      make_patterned_payload(sc.payload_bytes, 100).checksum();
  bool found = false;
  for (const auto& c : commits) {
    if (c.entry.command == 100) {
      EXPECT_EQ(c.entry.payload_crc, expected);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  Scenario bare = payload_scenario(StackKind::kReplicatedLog, 0);
  bare.payload_bytes = 0;
  const SweepRun with_bodies = SweepRunner::run_cell(sc, 21);
  const SweepRun without = SweepRunner::run_cell(bare, 21);
  EXPECT_NE(with_bodies.digest, without.digest);
}

}  // namespace
}  // namespace ssbft
