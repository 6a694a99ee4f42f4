// Unit tests: core bookkeeping — Params, TimedVar, ArrivalLog, the cleanup
// sweeps of msgd-broadcast and ss-Byz-Agree, wire format, authenticator.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "core/message_log.hpp"
#include "core/msgd_broadcast.hpp"
#include "core/params.hpp"
#include "core/ss_byz_agree.hpp"
#include "core/timed_var.hpp"
#include "mock_context.hpp"
#include "sim/auth.hpp"
#include "sim/payload.hpp"
#include "sim/wire.hpp"

namespace ssbft {
namespace {

// --------------------------------------------------------------- params --

TEST(ParamsTest, DerivedConstantsMatchPaper) {
  const Duration d = milliseconds(1);
  const Params p{7, 2, d};
  EXPECT_EQ(p.tau_g_skew(), 6 * d);
  EXPECT_EQ(p.phi(), 8 * d);                       // Φ = 6d + 2d
  EXPECT_EQ(p.delta_agr(), 5 * p.phi());           // (2f+1)Φ, f=2
  EXPECT_EQ(p.delta_0(), 13 * d);
  EXPECT_EQ(p.delta_rmv(), p.delta_agr() + p.delta_0());
  EXPECT_EQ(p.delta_v(), 15 * d + 2 * p.delta_rmv());
  EXPECT_EQ(p.delta_node(), p.delta_v() + p.delta_agr());
  EXPECT_EQ(p.delta_reset(), 20 * d + 4 * p.delta_rmv());
  EXPECT_EQ(p.delta_stb(), 2 * p.delta_reset());
  EXPECT_EQ(p.agree_cleanup(), p.delta_agr() + 3 * d);
  EXPECT_EQ(p.bcast_cleanup(), 7 * p.phi());       // (2f+3)Φ
}

TEST(ParamsTest, QuorumSizes) {
  const Params p{10, 3, milliseconds(1)};
  EXPECT_EQ(p.n_minus_f(), 7u);
  EXPECT_EQ(p.n_minus_2f(), 4u);
  // n−2f ≥ f+1: any n−2f set contains a correct node.
  EXPECT_GE(p.n_minus_2f(), p.f() + 1);
}

TEST(ParamsTest, FZeroIsAllowed) {
  const Params p{4, 0, milliseconds(1)};
  EXPECT_EQ(p.delta_agr(), p.phi());  // (2·0+1)Φ
}

TEST(ParamsDeathTest, RejectsInsufficientResilience) {
  EXPECT_DEATH((Params{6, 2, milliseconds(1)}), "precondition");  // n = 3f
  EXPECT_DEATH((Params{3, 1, milliseconds(1)}), "precondition");
  EXPECT_DEATH((Params{4, 1, Duration::zero()}), "precondition");
}

// ------------------------------------------------------------- TimedVar --

TEST(TimedVarTest, StartsBottom) {
  TimedVar v;
  EXPECT_TRUE(v.is_bottom());
  EXPECT_FALSE(v.get().has_value());
}

TEST(TimedVarTest, SetAndGet) {
  TimedVar v;
  v.set(LocalTime{100}, LocalTime{90});
  ASSERT_TRUE(v.get().has_value());
  EXPECT_EQ(*v.get(), LocalTime{90});
}

TEST(TimedVarTest, ResetToBottom) {
  TimedVar v;
  v.set(LocalTime{100}, LocalTime{90});
  v.reset(LocalTime{110});
  EXPECT_TRUE(v.is_bottom());
}

TEST(TimedVarTest, HistoricalQueryExact) {
  // Block K needs "last(G,m) = ⊥ at τq − d": exact history.
  TimedVar v;
  v.set(LocalTime{100}, LocalTime{100});
  v.reset(LocalTime{200});
  v.set(LocalTime{300}, LocalTime{300});

  EXPECT_FALSE(v.value_at(LocalTime{50}).has_value());   // before any set
  EXPECT_TRUE(v.value_at(LocalTime{100}).has_value());   // at the set
  EXPECT_TRUE(v.value_at(LocalTime{150}).has_value());
  EXPECT_FALSE(v.value_at(LocalTime{250}).has_value());  // after reset
  EXPECT_TRUE(v.value_at(LocalTime{350}).has_value());
}

TEST(TimedVarTest, CleanupExpiresOldValue) {
  TimedVar v;
  v.set(LocalTime{100}, LocalTime{100});
  v.cleanup(LocalTime{100} + milliseconds(10), /*expiry=*/milliseconds(5),
            /*history_keep=*/milliseconds(50));
  EXPECT_TRUE(v.is_bottom());
}

TEST(TimedVarTest, CleanupKeepsFreshValue) {
  TimedVar v;
  v.set(LocalTime{100}, LocalTime{100});
  v.cleanup(LocalTime{100} + milliseconds(3), milliseconds(5),
            milliseconds(50));
  EXPECT_FALSE(v.is_bottom());
}

TEST(TimedVarTest, CleanupDropsFutureValue) {
  // "Each time-stamped entry that is clearly wrong ... is removed" — a
  // future value can only come from a transient fault.
  TimedVar v;
  v.set(LocalTime{100}, LocalTime{100} + seconds(10));
  v.cleanup(LocalTime{200}, milliseconds(5), milliseconds(50));
  EXPECT_TRUE(v.is_bottom());
}

TEST(TimedVarTest, HistoryTrimPreservesWindowQueries) {
  TimedVar v;
  for (int i = 1; i <= 100; ++i) {
    v.set(LocalTime{i * 1000}, LocalTime{i * 1000});
  }
  v.cleanup(LocalTime{100'000}, Duration{1'000'000}, /*keep=*/Duration{5'000});
  // Queries within the keep window still resolve.
  EXPECT_TRUE(v.value_at(LocalTime{97'000}).has_value());
  EXPECT_TRUE(v.value_at(LocalTime{100'000}).has_value());
}

TEST(TimedVarTest, ScrambleThenCleanupHeals) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    TimedVar v;
    const LocalTime now{1'000'000};
    v.scramble(rng, now, milliseconds(1));
    // One cleanup pass must leave the variable in a sane state: either ⊥ or
    // a value within [now − expiry, now].
    v.cleanup(now, milliseconds(2), milliseconds(10));
    if (!v.is_bottom()) {
      EXPECT_LE(*v.get(), now);
      EXPECT_GE(*v.get(), now - milliseconds(2));
    }
  }
}

TEST(TimedVarTest, ValueAtUnchangedAcrossHistoryTrims) {
  // The trim keeps one change at/before the horizon, so every query inside
  // [now − keep, now] answers exactly as the untrimmed history does.
  Rng rng(0x7173);
  const Duration keep = microseconds(500);
  const Duration never = seconds(1000);  // no expiry: isolate the trim
  TimedVar trimmed;
  TimedVar full;
  LocalTime now{1'000'000};
  for (int op = 0; op < 2000; ++op) {
    now += microseconds(rng.next_in(0, 60));
    if (rng.next_bool(0.3)) {
      trimmed.reset(now);
      full.reset(now);
    } else {
      const LocalTime v = now - microseconds(rng.next_in(0, 100));
      trimmed.set(now, v);
      full.set(now, v);
    }
    if (rng.next_bool(0.5)) trimmed.cleanup(now, never, keep);
    for (int q = 0; q < 8; ++q) {
      const LocalTime at = now - microseconds(rng.next_in(0, 500));
      ASSERT_EQ(trimmed.value_at(at), full.value_at(at)) << "op " << op;
    }
    ASSERT_EQ(trimmed.value_at(now), full.value_at(now));
  }
}

// ------------------------------------------------------------ ArrivalLog --

ArrivalKey support_key(Value m) {
  return ArrivalKey{MsgKind::kSupport, m, kNoNode, 0};
}

TEST(ArrivalLogTest, CountsDistinctSendersOnly) {
  ArrivalLog log;
  log.note(support_key(1), 0, LocalTime{100});
  log.note(support_key(1), 0, LocalTime{110});  // duplicate sender
  log.note(support_key(1), 1, LocalTime{120});
  EXPECT_EQ(log.distinct_in_window(support_key(1), LocalTime{0}, LocalTime{200}),
            2u);
  EXPECT_EQ(log.distinct_total(support_key(1)), 2u);
}

TEST(ArrivalLogTest, WindowBoundsAreInclusive) {
  ArrivalLog log;
  log.note(support_key(1), 0, LocalTime{100});
  EXPECT_EQ(log.distinct_in_window(support_key(1), LocalTime{100}, LocalTime{100}),
            1u);
  EXPECT_EQ(log.distinct_in_window(support_key(1), LocalTime{101}, LocalTime{200}),
            0u);
  EXPECT_EQ(log.distinct_in_window(support_key(1), LocalTime{0}, LocalTime{99}),
            0u);
}

TEST(ArrivalLogTest, KeysAreIndependent) {
  ArrivalLog log;
  log.note(support_key(1), 0, LocalTime{100});
  log.note(support_key(2), 1, LocalTime{100});
  log.note(ArrivalKey{MsgKind::kApprove, 1, kNoNode, 0}, 2, LocalTime{100});
  EXPECT_EQ(log.distinct_total(support_key(1)), 1u);
  EXPECT_EQ(log.distinct_total(support_key(2)), 1u);
  EXPECT_EQ(log.distinct_total(ArrivalKey{MsgKind::kApprove, 1, kNoNode, 0}),
            1u);
}

TEST(ArrivalLogTest, LatestArrivalPerSenderWins) {
  // Windows end at "now", so only the latest arrival per sender matters.
  ArrivalLog log;
  log.note(support_key(1), 0, LocalTime{100});
  log.note(support_key(1), 0, LocalTime{500});
  EXPECT_EQ(log.distinct_in_window(support_key(1), LocalTime{400}, LocalTime{600}),
            1u);
}

TEST(ArrivalLogTest, ShortestWindowFindsMinimalAlpha) {
  ArrivalLog log;
  log.note(support_key(1), 0, LocalTime{100});
  log.note(support_key(1), 1, LocalTime{150});
  log.note(support_key(1), 2, LocalTime{190});
  const LocalTime now{200};
  // quorum 2: two newest are at 150 and 190 ⇒ α = 200−150 = 50.
  auto alpha = log.shortest_window(support_key(1), 2, now, Duration{1000});
  ASSERT_TRUE(alpha.has_value());
  EXPECT_EQ(alpha->ns(), 50);
  // quorum 3: α = 100.
  alpha = log.shortest_window(support_key(1), 3, now, Duration{1000});
  ASSERT_TRUE(alpha.has_value());
  EXPECT_EQ(alpha->ns(), 100);
}

TEST(ArrivalLogTest, ShortestWindowRespectsMaxWindow) {
  ArrivalLog log;
  log.note(support_key(1), 0, LocalTime{100});
  log.note(support_key(1), 1, LocalTime{900});
  EXPECT_FALSE(
      log.shortest_window(support_key(1), 2, LocalTime{1000}, Duration{500})
          .has_value());
  EXPECT_TRUE(
      log.shortest_window(support_key(1), 2, LocalTime{1000}, Duration{900})
          .has_value());
}

TEST(ArrivalLogTest, ShortestWindowZeroQuorum) {
  ArrivalLog log;
  EXPECT_EQ(log.shortest_window(support_key(1), 0, LocalTime{10}, Duration{5}),
            Duration::zero());
}

TEST(ArrivalLogTest, DecayRemovesOldAndFuture) {
  ArrivalLog log;
  log.note(support_key(1), 0, LocalTime{100});        // old
  log.note(support_key(1), 1, LocalTime{900});        // fresh
  log.note(support_key(1), 2, LocalTime{5000});       // future (transient junk)
  log.decay(LocalTime{1000}, /*keep=*/Duration{500});
  EXPECT_EQ(log.distinct_total(support_key(1)), 1u);
  EXPECT_EQ(log.distinct_in_window(support_key(1), LocalTime{900}, LocalTime{900}),
            1u);
}

TEST(ArrivalLogTest, EraseIfRemovesMatchingValues) {
  ArrivalLog log;
  log.note(support_key(1), 0, LocalTime{100});
  log.note(support_key(2), 0, LocalTime{100});
  log.erase_if([](const ArrivalKey& k) { return k.value == 1; });
  EXPECT_EQ(log.distinct_total(support_key(1)), 0u);
  EXPECT_EQ(log.distinct_total(support_key(2)), 1u);
}

std::vector<Value> values_of(const ArrivalLog& log, MsgKind kind) {
  std::vector<Value> values;
  log.append_values(kind, values);
  return values;
}

TEST(ArrivalLogTest, ValuesWithKind) {
  ArrivalLog log;
  log.note(support_key(1), 0, LocalTime{100});
  log.note(support_key(7), 0, LocalTime{100});
  log.note(ArrivalKey{MsgKind::kReady, 9, kNoNode, 0}, 0, LocalTime{100});
  const auto values = values_of(log, MsgKind::kSupport);
  EXPECT_EQ(values.size(), 2u);
  EXPECT_EQ(values_of(log, MsgKind::kReady).size(), 1u);
  EXPECT_TRUE(values_of(log, MsgKind::kApprove).empty());
}

TEST(ArrivalLogTest, BroadcastKeysDistinguishRoundAndBroadcaster) {
  ArrivalLog log;
  const ArrivalKey k1{MsgKind::kBcastEcho, 1, 3, 1};
  const ArrivalKey k2{MsgKind::kBcastEcho, 1, 3, 2};
  const ArrivalKey k3{MsgKind::kBcastEcho, 1, 4, 1};
  log.note(k1, 0, LocalTime{10});
  log.note(k2, 0, LocalTime{10});
  log.note(k3, 0, LocalTime{10});
  EXPECT_EQ(log.distinct_total(k1), 1u);
  EXPECT_EQ(log.distinct_total(k2), 1u);
  EXPECT_EQ(log.distinct_total(k3), 1u);
}

TEST(ArrivalLogTest, ScrambleThenDecayBoundsState) {
  Rng rng(3);
  ArrivalLog log;
  log.scramble(rng, LocalTime{1'000'000}, milliseconds(5), 10, 100);
  EXPECT_GT(log.total_arrivals(), 0u);
  // Decay with a tiny keep horizon wipes everything not in (now−keep, now].
  log.decay(LocalTime{1'000'000} + seconds(10), Duration{1});
  EXPECT_EQ(log.total_arrivals(), 0u);
}

// --------------------------------------------- msgd-broadcast cleanup --

WireMessage echo_for(NodeId p, Value m, std::uint32_t k, NodeId sender) {
  WireMessage msg;
  msg.kind = MsgKind::kBcastEcho;
  msg.general = GeneralId{1};
  msg.broadcaster = p;
  msg.value = m;
  msg.round = k;
  msg.sender = sender;
  return msg;
}

TEST(MsgdBroadcastCleanupTest, DropsStaleAndFutureRecordsLikeAFullSweep) {
  // Every message runs the Fig. 3 cleanup first. The model sweeps on every
  // message; the instance may skip a sweep only when nothing is due, so the
  // instance counts must agree after every step — including after the
  // clock jumps back and recent records turn future-stamped.
  const Params params{7, 2, milliseconds(1)};
  const Duration keep = params.bcast_cleanup();
  MockContext ctx(0, 7);
  MsgdBroadcast bc(params, GeneralId{1}, [](NodeId, Value, std::uint32_t) {});
  std::map<std::tuple<NodeId, Value, std::uint32_t>, LocalTime> model;
  Rng rng(0xbca5);
  LocalTime now = ctx.local_now();
  for (int step = 0; step < 3000; ++step) {
    if (rng.next_below(10) == 0) {
      now = now - keep / 4 + Duration{rng.next_in(0, (keep / 4).ns())};
    } else {
      now += Duration{rng.next_in(0, (keep / 8).ns())};
    }
    ctx.set_now(now);
    const auto p = NodeId(rng.next_below(3));
    const Value m = rng.next_below(3);
    const auto k = std::uint32_t(rng.next_below(3)) + 1;
    bc.on_message(ctx, echo_for(p, m, k, NodeId(rng.next_below(7))));
    std::erase_if(model, [&](const auto& e) {
      return e.second < now - keep || e.second > now;
    });
    model[{p, m, k}] = now;
    ASSERT_EQ(bc.instance_count(), model.size()) << "step " << step;
  }
}

TEST(MsgdBroadcastCleanupTest, DropsScrambledRecordsOnceStaleOrFuture) {
  const Params params{7, 2, milliseconds(1)};
  const Duration keep = params.bcast_cleanup();
  Rng rng(0x5c7a);
  for (int trial = 0; trial < 40; ++trial) {
    for (const bool forward : {true, false}) {
      MockContext ctx(0, 7);
      MsgdBroadcast bc(params, GeneralId{1},
                       [](NodeId, Value, std::uint32_t) {});
      const LocalTime t = ctx.local_now();
      bc.scramble(ctx, rng);  // activity stamped in [t − keep, t]
      const std::size_t planted = bc.instance_count();
      // Still inside the horizon: a message keeps every planted record.
      ctx.set_now(t);
      bc.on_message(ctx, echo_for(6, 9, 9, 1));
      ASSERT_EQ(bc.instance_count(), planted + 1);
      // Past it (or before all of it): only the probe's own record stays.
      ctx.set_now(forward ? t + keep + Duration{1} : t - keep - Duration{1});
      bc.on_message(ctx, echo_for(6, 9, 8, 1));
      ASSERT_EQ(bc.instance_count(), 1u) << "trial " << trial;
    }
  }
}

// ------------------------------------------------ ss-Byz-Agree cleanup --

TEST(SsByzAgreeCleanupTest, DropsScrambledAcceptsOnceStaleOrFuture) {
  // Fig. 1 cleanup: accept records older than (2f+1)Φ + 3d, or stamped in
  // the future, go on the next event. A message of another protocol only
  // runs the cleanup.
  const Params params{7, 2, milliseconds(1)};
  const Duration keep = params.agree_cleanup();
  WireMessage other;
  other.kind = MsgKind::kTpsGeneral;
  Rng rng(0xa9ee);
  std::size_t planted_total = 0;
  for (int trial = 0; trial < 60; ++trial) {
    for (const bool forward : {true, false}) {
      MockContext ctx(0, 7);
      SsByzAgree agree(params, GeneralId{1}, [](const AgreeResult&) {});
      const LocalTime t = ctx.local_now();
      agree.scramble(ctx, rng);  // accepts stamped in [t − keep, t]
      const std::size_t planted = agree.accept_count();
      planted_total += planted;
      agree.on_message(ctx, other);
      ASSERT_EQ(agree.accept_count(), planted);
      ctx.set_now(forward ? t + keep + Duration{1} : t - keep - Duration{1});
      agree.on_message(ctx, other);
      ASSERT_EQ(agree.accept_count(), 0u) << "trial " << trial;
    }
  }
  EXPECT_GT(planted_total, 0u);  // the scrambles did plant records
}

// ----------------------------------------------------------------- wire --

TEST(WireTest, KindNamesAreStable) {
  EXPECT_STREQ(to_string(MsgKind::kInitiator), "Initiator");
  EXPECT_STREQ(to_string(MsgKind::kSupport), "support");
  EXPECT_STREQ(to_string(MsgKind::kApprove), "approve");
  EXPECT_STREQ(to_string(MsgKind::kReady), "ready");
  EXPECT_STREQ(to_string(MsgKind::kBcastInit), "init");
  EXPECT_STREQ(to_string(MsgKind::kBcastEchoPrime), "echo'");
}

TEST(WireTest, MessageToStringMentionsFields) {
  WireMessage msg;
  msg.kind = MsgKind::kSupport;
  msg.general = GeneralId{3};
  msg.value = 42;
  msg.sender = 5;
  const std::string s = to_string(msg);
  EXPECT_NE(s.find("support"), std::string::npos);
  EXPECT_NE(s.find("G=3"), std::string::npos);
  EXPECT_NE(s.find("m=42"), std::string::npos);
  EXPECT_NE(s.find("from=5"), std::string::npos);
}

// -------------------------------------------------------- authenticator --

TEST(AuthenticatorGoldenTest, TagIsPinned) {
  // Tags from a fixed key and message, pinned: any change to the tag chain
  // (its hoisted key link included) breaks HMAC runs' digests.
  WireMessage msg;
  msg.kind = MsgKind::kApprove;
  msg.sender = 6;
  msg.general = GeneralId{2};
  msg.value = 0x5eed;
  msg.broadcaster = 4;
  msg.round = 3;
  msg.payload = make_patterned_payload(300, 9);
  constexpr std::uint64_t kGolden = 0x9385ea3a216e2350;
  EXPECT_EQ(Authenticator(AuthKind::kHmac, 20240601).tag(msg), kGolden);

  WireMessage forged = msg;
  forged.sender = 70000;
  forged.kind = MsgKind(200);
  constexpr std::uint64_t kForgedGolden = 0x170021e9389cab1e;
  EXPECT_EQ(Authenticator(AuthKind::kHmac, 20240601).tag(forged),
            kForgedGolden);
}

}  // namespace
}  // namespace ssbft
