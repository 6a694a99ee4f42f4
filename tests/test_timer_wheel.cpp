// TimerWheel: the hierarchical wheel must (1) never fire early beyond one
// tick of hand-over slack, never late, and never lose a timer — across slot
// edges, level cascades, the overflow horizon, and zero-delay arming;
// (2) give O(1) cancel/reschedule with ABA-safe handles; and (3) be
// *unobservable*: a wheel-backed World/ShardWorld produces bit-identical
// digests to the legacy all-in-the-heap timer path for every StackKind and
// shard count (dispatched-event counts may differ — a timer cancelled while
// still in the wheel never becomes an event, while the heap path dispatches
// a suppressed no-op; nothing downstream of dispatch can tell).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/sweep.hpp"
#include "sim/event_queue.hpp"
#include "sim/timer_wheel.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace ssbft {
namespace {

constexpr std::int64_t kTick = 1 << TimerWheel::kTickShift;
constexpr std::int64_t kHorizonNs =
    std::int64_t(TimerWheel::kHorizonTicks) << TimerWheel::kTickShift;

/// Advance to `t` and return the batch's handles' cookies, sorted.
std::vector<std::uint64_t> drain_cookies(TimerWheel& wheel, RealTime t) {
  std::vector<TimerWheel::Due> batch;
  wheel.advance(t, batch);
  std::vector<std::uint64_t> cookies;
  for (const auto& due : batch) {
    NodeId node;
    std::uint64_t cookie;
    EXPECT_TRUE(wheel.claim(due.handle, node, cookie));
    cookies.push_back(cookie);
  }
  std::sort(cookies.begin(), cookies.end());
  return cookies;
}

TEST(TimerWheel, ScheduleCancelClaimLifecycle) {
  TimerWheel wheel;
  const TimerHandle h =
      wheel.schedule(RealTime{5 * kTick}, EventKey{1, 1}, 1, 42);
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(wheel.armed(), 1u);

  EXPECT_TRUE(wheel.cancel(h));        // live → cancelled
  EXPECT_FALSE(wheel.cancel(h));       // second cancel is a no-op
  EXPECT_EQ(wheel.armed(), 0u);
  NodeId node;
  std::uint64_t cookie;
  EXPECT_FALSE(wheel.claim(h, node, cookie));  // cancelled → unclaimable

  // The slot is recycled: a stale handle to the old arming must stay dead.
  const TimerHandle h2 =
      wheel.schedule(RealTime{5 * kTick}, EventKey{1, 3}, 2, 43);
  EXPECT_EQ(h2.index, h.index);        // recycled slab slot
  EXPECT_NE(h2.generation, h.generation);
  EXPECT_FALSE(wheel.cancel(h));       // ABA-safe: old generation
  std::vector<TimerWheel::Due> batch;
  wheel.advance(RealTime{5 * kTick}, batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(wheel.claim(batch[0].handle, node, cookie));
  EXPECT_EQ(node, 2u);
  EXPECT_EQ(cookie, 43u);
  EXPECT_FALSE(wheel.claim(batch[0].handle, node, cookie));  // fired once
  EXPECT_EQ(wheel.live(), 0u);
}

TEST(TimerWheel, CancelAfterHandOverStillSuppresses) {
  TimerWheel wheel;
  const TimerHandle h = wheel.schedule(RealTime{kTick}, EventKey{0, 1}, 0, 7);
  std::vector<TimerWheel::Due> batch;
  wheel.advance(RealTime{kTick}, batch);
  ASSERT_EQ(batch.size(), 1u);
  // Handed to the engine but not yet fired: cancel must still win.
  EXPECT_TRUE(wheel.cancel(h));
  NodeId node;
  std::uint64_t cookie;
  EXPECT_FALSE(wheel.claim(batch[0].handle, node, cookie));
}

TEST(TimerWheel, ZeroDelayTimersFireOnNextAdvance) {
  TimerWheel wheel;
  std::vector<TimerWheel::Due> batch;
  wheel.advance(RealTime{10 * kTick}, batch);  // move wheel time forward
  EXPECT_TRUE(batch.empty());
  // At, and even before, the wheel's current time: must fire, not vanish.
  (void)wheel.schedule(RealTime{10 * kTick}, EventKey{0, 1}, 0, 1);
  (void)wheel.schedule(RealTime{3 * kTick}, EventKey{0, 3}, 0, 2);
  EXPECT_LE(wheel.next_due().ns(), 10 * kTick);
  EXPECT_EQ(drain_cookies(wheel, RealTime{10 * kTick}),
            (std::vector<std::uint64_t>{1, 2}));
}

// Slot-edge and cascade boundaries: a timer never fires more than one tick
// early and never after an advance that covers its time. Exercises level-0
// edges, the level-1 and level-2 promotion boundaries, and mid-level times.
TEST(TimerWheel, CascadeBoundariesFireExactlyOnce) {
  const std::int64_t kSlots = TimerWheel::kSlots;
  const std::vector<std::int64_t> edges_ticks = {
      1,          2,          kSlots - 1, kSlots,     kSlots + 1,
      2 * kSlots, kSlots * kSlots - 1,    kSlots * kSlots,
      kSlots * kSlots + kSlots + 1,       kSlots * kSlots * kSlots + 17,
  };
  TimerWheel wheel;
  std::uint64_t cookie = 0;
  for (const std::int64_t t : edges_ticks) {
    (void)wheel.schedule(RealTime{t * kTick}, EventKey{0, 2 * cookie + 1}, 0,
                         cookie);
    ++cookie;
    // A second timer just before the edge (same slot's last nanosecond).
    (void)wheel.schedule(RealTime{t * kTick - 1}, EventKey{0, 2 * cookie}, 0,
                         cookie);
    ++cookie;
  }
  EXPECT_EQ(wheel.armed(), edges_ticks.size() * 2);

  std::vector<bool> fired(cookie, false);
  std::vector<TimerWheel::Due> batch;
  RealTime now{};
  for (std::size_t i = 0; i < edges_ticks.size(); ++i) {
    // Advance to one tick BEFORE the edge: the edge timer must stay armed.
    const RealTime before{(edges_ticks[i] - 1) * kTick};
    if (before > now) {
      wheel.advance(before, batch);
      now = before;
      for (const auto& due : batch) {
        NodeId node;
        std::uint64_t c;
        ASSERT_TRUE(wheel.claim(due.handle, node, c));
        // Hand-over is never more than one tick ahead of the advance
        // target (the queue re-orders within the batch anyway).
        EXPECT_LT(due.when.ns(), now.ns() + kTick) << "cookie " << c;
        ASSERT_LT(c, fired.size());
        EXPECT_FALSE(fired[c]);
        fired[c] = true;
      }
    }
    EXPECT_FALSE(fired[2 * i]) << "edge timer fired a full tick early";
  }
  wheel.advance(RealTime{edges_ticks.back() * kTick}, batch);
  for (const auto& due : batch) {
    NodeId node;
    std::uint64_t c;
    ASSERT_TRUE(wheel.claim(due.handle, node, c));
    EXPECT_FALSE(fired[c]);
    fired[c] = true;
  }
  EXPECT_TRUE(std::all_of(fired.begin(), fired.end(), [](bool b) { return b; }))
      << "a timer was lost crossing a cascade boundary";
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, FarFutureTimersParkOnOverflowList) {
  TimerWheel wheel;
  // Beyond the wheel horizon: parked, not misfiled.
  (void)wheel.schedule(RealTime{kHorizonNs + 5 * kTick}, EventKey{0, 1}, 0, 1);
  EXPECT_EQ(wheel.overflow_size(), 1u);
  // The horizon's last slot is still in range from tick 0.
  (void)wheel.schedule(RealTime{kHorizonNs - kTick}, EventKey{0, 3}, 0, 2);
  EXPECT_EQ(wheel.overflow_size(), 1u);

  std::vector<TimerWheel::Due> batch;
  wheel.advance(RealTime{kHorizonNs - 2 * kTick}, batch);
  EXPECT_TRUE(batch.empty());
  // Near-future but across the top-level span boundary: also parked (the
  // XOR placement has no level for it) until the wheel crosses the span.
  (void)wheel.schedule(RealTime{kHorizonNs + kTick}, EventKey{0, 5}, 0, 3);
  EXPECT_EQ(wheel.overflow_size(), 2u);
  EXPECT_EQ(drain_cookies(wheel, RealTime{kHorizonNs - kTick}),
            (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(drain_cookies(wheel, RealTime{kHorizonNs + kTick}),
            (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(drain_cookies(wheel, RealTime{kHorizonNs + 5 * kTick}),
            (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(wheel.overflow_size(), 0u);

  // Cancelling a parked far-future timer is O(1) like any other.
  const TimerHandle far =
      wheel.schedule(RealTime{2 * kHorizonNs}, EventKey{0, 5}, 0, 3);
  EXPECT_EQ(wheel.overflow_size(), 1u);
  EXPECT_TRUE(wheel.cancel(far));
  EXPECT_EQ(wheel.overflow_size(), 0u);
}

// The randomized equivalence gate: 10k timers with arbitrary times funnel
// through wheel → EventQueue exactly like timers parked in the heap from
// the start — the dispatch order is the total (when, creator, seq) order.
TEST(TimerWheel, TenThousandRandomTimersDispatchInKeyOrder) {
  struct Ref {
    RealTime when;
    EventKey key;
    std::uint64_t cookie;
  };
  Rng rng(20260729);
  std::vector<Ref> refs;
  TimerWheel wheel;
  EventQueue queue;
  std::vector<std::uint64_t> dispatched;

  constexpr std::uint32_t kCount = 10'000;
  std::uint64_t seq_per_creator[8] = {};
  for (std::uint32_t i = 0; i < kCount; ++i) {
    // Mostly dense short-horizon, some mid-range, a sliver far-future —
    // the protocol-timer shape, plus the overflow path.
    std::int64_t when_ns;
    const double bucket = rng.next_double();
    if (bucket < 0.90) {
      when_ns = rng.next_in(0, 1'000'000'000);  // ≤ 1 s
    } else if (bucket < 0.99) {
      when_ns = rng.next_in(0, kHorizonNs - 1);
    } else {
      when_ns = rng.next_in(kHorizonNs, 2 * kHorizonNs);
    }
    const auto creator = std::uint32_t(rng.next_below(8));
    const EventKey key{creator, seq_per_creator[creator]++ * 2 + 1};
    refs.push_back(Ref{RealTime{when_ns}, key, i});
    (void)wheel.schedule(RealTime{when_ns}, key, creator, i);
  }

  // Engine pump loop: hand due batches to the queue, dispatch in key order.
  std::vector<TimerWheel::Due> batch;
  while (dispatched.size() < kCount) {
    const RealTime next_event =
        queue.empty() ? RealTime::max() : queue.next_time();
    const RealTime next_timer = wheel.next_due();
    if (next_timer <= next_event) {
      wheel.advance(std::min(next_event, RealTime{4 * kHorizonNs}), batch);
      for (const auto& due : batch) {
        TimerWheel* w = &wheel;
        queue.schedule(due.when, due.key,
                       [w, h = due.handle, &dispatched] {
                         NodeId node;
                         std::uint64_t cookie;
                         ASSERT_TRUE(w->claim(h, node, cookie));
                         dispatched.push_back(cookie);
                       });
      }
      continue;
    }
    ASSERT_FALSE(queue.empty()) << "timers lost: wheel and queue both idle";
    queue.run_one();
  }

  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.key.creator != b.key.creator) return a.key.creator < b.key.creator;
    return a.key.seq < b.key.seq;
  });
  ASSERT_EQ(dispatched.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ASSERT_EQ(dispatched[i], refs[i].cookie) << "divergence at " << i;
  }
}

// --- engine-level equivalence ----------------------------------------------

/// test_shard's stack-shaped scenario, shortened: positive delay floor so
/// every shard count is eligible, workload per stack kind.
Scenario wheel_scenario(StackKind stack, std::uint32_t shards,
                        bool timer_wheel) {
  Scenario sc;
  sc.stack = stack;
  sc.n = 8;
  sc.f = 2;
  sc.with_tail_faults(2);
  sc.shards = shards;
  sc.timer_wheel = timer_wheel;
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
      sc.run_for = milliseconds(120);
      break;
    case StackKind::kBaselineTps:
      sc.with_proposal(milliseconds(1), 0, 7);
      sc.run_for = milliseconds(100);
      break;
    case StackKind::kReplicatedLog:
    case StackKind::kPipelinedLog:
      for (std::uint32_t c = 0; c < 3; ++c) {
        sc.with_proposal(Duration::zero(), NodeId(c), 100 + c);
      }
      sc.run_for = 5 * (params.delta_0() + params.delta_agr() + 10 * params.d());
      break;
    case StackKind::kPulse:
    case StackKind::kClockSync:
      sc.run_for =
          params.delta_stb() + 8 * 2 * (params.delta_0() + params.delta_agr());
      break;
  }
  return sc;
}

// The acceptance matrix: for all six StackKinds × shards ∈ {1, 2, 4}, a
// wheel-backed run is bit-identical to the serial legacy-heap run. (Event
// counts are compared wheel-vs-wheel across engines only — see header.)
TEST(TimerWheelEquivalence, EveryStackEveryShardCountMatchesHeapPath) {
  for (std::uint32_t k = 0; k < kStackKindCount; ++k) {
    const SweepRun heap = SweepRunner::run_cell(
        wheel_scenario(StackKind(k), 0, /*timer_wheel=*/false), 21);
    const SweepRun wheel_serial = SweepRunner::run_cell(
        wheel_scenario(StackKind(k), 0, /*timer_wheel=*/true), 21);
    const char* stack = to_string(StackKind(k));
    EXPECT_EQ(wheel_serial.digest, heap.digest) << stack << " serial";
    EXPECT_EQ(wheel_serial.messages, heap.messages) << stack << " serial";
    EXPECT_EQ(wheel_serial.latency_ns, heap.latency_ns) << stack << " serial";
    EXPECT_EQ(wheel_serial.pass, heap.pass) << stack << " serial";
    // dispatched() is net of suppressed no-op pops, so even the event
    // count is backend-invariant.
    EXPECT_EQ(wheel_serial.events, heap.events) << stack << " serial";
    // The windowed engine on both backends: timer_wheel = false takes
    // ShardWorld::arm_timer's all-external branch, every fire parked in
    // its node queue at arm time.
    for (const bool timer_wheel : {true, false}) {
      for (std::uint32_t shards : {1u, 2u, 4u}) {
        const SweepRun sharded = SweepRunner::run_cell(
            wheel_scenario(StackKind(k), shards, timer_wheel), 21);
        const char* backend = timer_wheel ? " wheel" : " heap";
        EXPECT_EQ(sharded.digest, heap.digest)
            << stack << " shards " << shards << backend;
        EXPECT_EQ(sharded.messages, heap.messages)
            << stack << " shards " << shards << backend;
        EXPECT_EQ(sharded.events, heap.events)
            << stack << " shards " << shards << backend;
      }
    }
  }
}

// Transient scrambles drop timer handles mid-flight on both paths; parity
// must survive the fault model's worst habit.
TEST(TimerWheelEquivalence, ScrambleMatchesHeapPath) {
  Scenario heap_sc = wheel_scenario(StackKind::kAgree, 0, false);
  heap_sc.transient_scramble = true;
  heap_sc.transient.spurious_per_node = 16;
  Scenario wheel_sc = heap_sc;
  wheel_sc.timer_wheel = true;
  wheel_sc.shards = 4;
  const SweepRun heap = SweepRunner::run_cell(heap_sc, 5);
  const SweepRun wheel = SweepRunner::run_cell(wheel_sc, 5);
  EXPECT_EQ(wheel.digest, heap.digest);
  EXPECT_EQ(wheel.messages, heap.messages);
}

// World-level zero-delay + quiescence semantics with the wheel backend.
TEST(TimerWheelEquivalence, QuiescenceDrainsDueTimersOnly) {
  struct OneShot final : NodeBehavior {
    int fired = 0;
    void on_start(NodeContext& ctx) override {
      (void)ctx.set_timer_after(milliseconds(1), 1);
      (void)ctx.set_timer_after(seconds(10), 2);
      (void)ctx.set_timer(ctx.local_now() - milliseconds(5), 3);  // past due
    }
    void on_message(NodeContext&, const WireMessage&) override {}
    void on_timer(NodeContext&, std::uint64_t) override { ++fired; }
  };
  WorldConfig config;
  config.n = 1;
  World world(config);
  auto behavior = std::make_unique<OneShot>();
  OneShot* raw = behavior.get();
  world.set_behavior(0, std::move(behavior));
  world.start();
  world.run_to_quiescence(RealTime::zero() + seconds(1));
  EXPECT_EQ(raw->fired, 2);  // the past-due and the 1 ms timer, not the 10 s
  world.run_until(RealTime::zero() + seconds(11));
  EXPECT_EQ(raw->fired, 3);
}

}  // namespace
}  // namespace ssbft
