// Unit tests: simulation substrate (event queue, clocks, network, world).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_injector.hpp"
#include "sim/network.hpp"
#include "sim/tap.hpp"
#include "sim/world.hpp"

namespace ssbft {
namespace {

// Heap-allocation counter for the zero-allocation regression test below.
// Replacing the global operator new in a test binary is the standard way to
// observe the allocator without tooling; only the delta across a bracketed
// region is asserted.
std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace
}  // namespace ssbft

// GCC flags free() inside a replaced operator delete as a mismatched pair;
// malloc/free is exactly what a replacement is allowed (and expected) to do.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ssbft::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms must be replaced too: std::stable_sort's temporary
// buffer allocates through operator new(size, nothrow) — leaving it to the
// runtime while replacing operator delete splits an allocation across two
// allocators (AddressSanitizer flags the pair as alloc-dealloc-mismatch).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ssbft::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace ssbft {
namespace {

// ---------------------------------------------------------- event queue --

TEST(EventQueueTest, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(RealTime{30}, [&] { order.push_back(3); });
  q.schedule(RealTime{10}, [&] { order.push_back(1); });
  q.schedule(RealTime{20}, [&] { order.push_back(2); });
  q.run_until(RealTime{100});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.dispatched(), 3u);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(RealTime{5}, [&order, i] { order.push_back(i); });
  }
  q.run_until(RealTime{5});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(RealTime{1}, [&] {
    ++fired;
    q.schedule(RealTime{2}, [&] { ++fired; });
  });
  q.run_until(RealTime{10});
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), RealTime{10});
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule(RealTime{5}, [&] { ++fired; });
  q.schedule(RealTime{15}, [&] { ++fired; });
  q.run_until(RealTime{10});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), RealTime{10});
  q.run_until(RealTime{20});
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueDeathTest, SchedulingInThePastAborts) {
  EventQueue q;
  q.schedule(RealTime{10}, [] {});
  q.run_until(RealTime{10});
  EXPECT_DEATH(q.schedule(RealTime{5}, [] {}), "precondition");
}

// Regression (slab refactor): dispatch order and dispatched() count must be
// exactly what the (when, seq) contract promises under a randomized load,
// including interleaved pops and re-schedules that recycle slab slots.
TEST(EventQueueTest, RandomizedLoadMatchesReferenceOrder) {
  Rng rng(99);
  EventQueue q;
  struct Expected {
    std::int64_t when;
    std::uint64_t seq;
  };
  std::vector<Expected> expected;
  std::vector<std::uint64_t> dispatched_seq;
  std::uint64_t seq = 0;
  std::int64_t floor_ns = 0;

  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) {
      const std::int64_t when = floor_ns + rng.next_in(0, 500);
      const std::uint64_t id = seq++;
      expected.push_back({when, id});
      q.schedule(RealTime{when}, [&dispatched_seq, id] {
        dispatched_seq.push_back(id);
      });
    }
    // Drain roughly half each round so slots recycle while events remain.
    const std::int64_t deadline = floor_ns + 250;
    q.run_until(RealTime{deadline});
    floor_ns = deadline;
  }
  q.run_until(RealTime{floor_ns + 1000});

  ASSERT_TRUE(q.empty());
  EXPECT_EQ(q.dispatched(), expected.size());
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) {
                     if (a.when != b.when) return a.when < b.when;
                     return a.seq < b.seq;
                   });
  ASSERT_EQ(dispatched_seq.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(dispatched_seq[i], expected[i].seq) << "position " << i;
  }
}

// Dispatch runs the stored callable in place: scheduling an rvalue moves
// it into its slot once, and nothing on the dispatch path copies it.
TEST(EventQueueTest, DispatchNeverCopiesTheCallable) {
  struct Counting {
    int* copies;
    int* runs;
    Counting(int* c, int* r) : copies(c), runs(r) {}
    Counting(const Counting& o) : copies(o.copies), runs(o.runs) {
      ++*copies;
    }
    Counting(Counting&& o) noexcept : copies(o.copies), runs(o.runs) {}
    void operator()() const { ++*runs; }
  };
  int copies = 0, runs = 0;
  EventQueue q;
  q.schedule(RealTime{1}, Counting{&copies, &runs});
  q.run_one();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(copies, 0);
}

// Move-only closures are now first-class (std::function required copyable).
TEST(EventQueueTest, MoveOnlyCallablesAreSupported) {
  EventQueue q;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  q.schedule(RealTime{1}, [p = std::move(payload), &seen] { seen = *p + 1; });
  q.run_until(RealTime{2});
  EXPECT_EQ(seen, 42);
}

// Closures above kInlineCapacity are boxed transparently.
TEST(EventQueueTest, OversizedClosuresStillDispatchInOrder) {
  EventQueue q;
  std::vector<int> order;
  struct Big {
    std::byte padding[200];
  };
  Big big{};
  q.schedule(RealTime{20}, [&order, big] { (void)big; order.push_back(2); });
  q.schedule(RealTime{10}, [&order] { order.push_back(1); });
  q.run_until(RealTime{30});
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Slab growth must never byte-relocate a live closure (slots live in
// address-stable chunks): an SSO std::string capture is self-referential
// and would dangle if the slab were a flat reallocating vector.
TEST(EventQueueTest, SlabGrowthPreservesNonTriviallyRelocatableClosures) {
  EventQueue q;
  std::string got;
  const std::string payload = "sso";  // internal pointer into the object
  q.schedule(RealTime{1'000'000}, [payload, &got] { got = payload; });
  int late = 0;
  for (int i = 0; i < 5000; ++i) {
    // Grow the slab by dozens of chunks while the string closure is live.
    q.schedule(RealTime{i}, [&late] { ++late; });
  }
  q.run_until(RealTime{2'000'000});
  EXPECT_EQ(got, "sso");
  EXPECT_EQ(late, 5000);
}

// Pending events are destroyed (not leaked, not run) with the queue.
TEST(EventQueueTest, PendingEventsAreDestroyedNotRun) {
  auto tracker = std::make_shared<int>(7);
  std::weak_ptr<int> weak = tracker;
  bool ran = false;
  {
    EventQueue q;
    q.schedule(RealTime{5}, [t = std::move(tracker), &ran] {
      ran = true;
      (void)t;
    });
  }
  EXPECT_FALSE(ran);
  EXPECT_TRUE(weak.expired());
}

// for_each_pending<Fn> sees exactly the pending events of type Fn, with
// the (when, key) they were scheduled under: not the ones already
// dispatched, not lambdas, not other named types.
struct TaggedEvent {
  int tag;
  int* fired;
  void operator()() const { ++*fired; }
};
struct OtherEvent {
  int tag;
  void operator()() const {}
};

TEST(EventQueueTest, ForEachPendingVisitsOnlyPendingEventsOfOneType) {
  EventQueue q;
  int fired = 0;
  q.schedule(RealTime{10}, EventKey{3, 4}, TaggedEvent{1, &fired});
  q.schedule(RealTime{20}, EventKey{5, 6}, TaggedEvent{2, &fired});
  q.schedule(RealTime{30}, TaggedEvent{3, &fired});  // world-level key
  q.schedule(RealTime{15}, EventKey{3, 8}, OtherEvent{4});
  q.schedule(RealTime{25}, [&fired] { fired += 100; });
  q.run_until(RealTime{15});  // dispatches tag 1 and the OtherEvent
  ASSERT_EQ(fired, 1);

  std::map<int, std::pair<RealTime, EventKey>> seen;
  q.for_each_pending<TaggedEvent>(
      [&](RealTime when, EventKey key, const TaggedEvent& event) {
        EXPECT_TRUE(seen.emplace(event.tag, std::make_pair(when, key)).second);
      });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen.at(2).first, RealTime{20});
  EXPECT_EQ(seen.at(2).second.creator, 5u);
  EXPECT_EQ(seen.at(2).second.seq, 6u);
  EXPECT_EQ(seen.at(3).first, RealTime{30});
  EXPECT_EQ(seen.at(3).second.creator, kGlobalCreator);

  std::size_t others = 0;
  q.for_each_pending<OtherEvent>(
      [&](RealTime, EventKey, const OtherEvent&) { ++others; });
  EXPECT_EQ(others, 0u);

  // Visiting is read-only: every pending event still runs.
  q.run_until(RealTime{40});
  EXPECT_EQ(fired, 103);
}

// The tentpole claim: once the slab and heap cover the in-flight
// population, scheduling + dispatching inline closures allocates nothing.
TEST(EventQueueTest, SteadyStateDispatchAllocatesNothing) {
  EventQueue q;
  std::uint64_t fired = 0;
  struct Chain {
    EventQueue* q;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      if (*fired < 20'000) q->schedule(q->now() + Duration{10}, *this);
    }
  };
  for (int i = 0; i < 64; ++i) q.schedule(RealTime{i}, Chain{&q, &fired});
  // Warm up: grow slab/heap capacity to the steady in-flight population.
  while (!q.empty() && fired < 1'000) q.run_one();

  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  while (!q.empty() && fired < 19'000) q.run_one();
  const std::uint64_t allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after, allocs_before);
  // Drain: the last in-flight generation fires without rescheduling.
  while (!q.empty()) q.run_one();
  EXPECT_GE(fired, 20'000u);
  EXPECT_LT(fired, 20'064u);
}

// ------------------------------------------- event queue properties --
// The 4-ary heap keeps (when, creator) in its entries and the seq in a
// per-slot array; these properties pin its order against a reference sort
// and the in-place dispatch invariants.

struct RefKey {
  std::int64_t when;
  std::uint32_t creator;
  std::uint64_t seq;
  auto operator<=>(const RefKey&) const = default;
};

// Random schedule/run_one interleavings against a reference ordered set of
// (when, creator, seq). A narrow time range makes (when, creator) ties —
// the ones only the per-slot seq breaks — common.
TEST(EventQueuePropertyTest, RandomInterleavingsMatchReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::set<RefKey> pending;
    std::vector<std::uint64_t> next_seq(5, 0);
    std::vector<RefKey> fired;
    const auto check_next = [&](int step) {
      const RefKey expected = *pending.begin();
      pending.erase(pending.begin());
      q.run_one();
      ASSERT_FALSE(fired.empty());
      EXPECT_TRUE(fired.back() == expected)
          << "seed " << seed << " step " << step << ": fired ("
          << fired.back().when << ", " << fired.back().creator << ", "
          << fired.back().seq << ") expected (" << expected.when << ", "
          << expected.creator << ", " << expected.seq << ")";
      EXPECT_EQ(q.now().ns(), expected.when);
    };
    for (int step = 0; step < 3000; ++step) {
      if (pending.empty() || rng.next_below(5) < 3) {
        const auto c = std::uint32_t(rng.next_below(next_seq.size()));
        const std::uint32_t creator = c == 4 ? kForgedCreator : c;
        next_seq[c] += 1 + rng.next_below(3);
        const RefKey key{q.now().ns() + rng.next_in(0, 40), creator,
                         next_seq[c]};
        pending.insert(key);
        q.schedule(RealTime{key.when}, EventKey{key.creator, key.seq},
                   [&fired, key] { fired.push_back(key); });
      } else {
        check_next(step);
      }
      ASSERT_EQ(q.size(), pending.size());
    }
    while (!pending.empty()) check_next(-1);
    EXPECT_TRUE(q.empty());
  }
}

// A constant-delay broadcast: every copy has the same (when, creator), so
// the per-slot seq is the only thing that orders them. Scheduled shuffled,
// amid other creators at the same instant.
TEST(EventQueuePropertyTest, EqualTimeBurstFromOneCreatorDispatchesBySeq) {
  EventQueue q;
  std::vector<std::uint64_t> seqs(300);
  for (std::size_t i = 0; i < seqs.size(); ++i) seqs[i] = 2 * i;
  Rng rng(7);
  for (std::size_t i = seqs.size(); i > 1; --i) {
    std::swap(seqs[i - 1], seqs[rng.next_below(i)]);
  }
  std::vector<std::pair<std::uint32_t, std::uint64_t>> order;
  const RealTime when{1'000};
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    q.schedule(when, EventKey{7, seqs[i]}, [&order, s = seqs[i]] {
      order.emplace_back(7, s);
    });
    if (i % 50 == 0) {
      for (const std::uint32_t other : {3u, 9u}) {
        q.schedule(when, EventKey{other, i}, [&order, other, i] {
          order.emplace_back(other, i);
        });
      }
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint64_t>> expected = order;
  for (std::size_t i = 0; i < seqs.size(); i += 50) {
    expected.emplace_back(3, i);
    expected.emplace_back(9, i);
  }
  for (const std::uint64_t s : seqs) expected.emplace_back(7, s);
  std::sort(expected.begin(), expected.end());
  q.run_until(when);
  EXPECT_EQ(order, expected);
}

// A running event is dispatched in place: its slot stays off the free list
// while it runs, so it can schedule well over two chunks of new events —
// growing the slab — and still read its own captures, including a
// self-referential SSO string. It is destroyed exactly once, after it ran.
TEST(EventQueuePropertyTest, RunningEventKeepsItsCapturesWhileGrowingTheSlab) {
  struct Probe {
    std::array<std::uint64_t, 7> pattern;
    std::string sso;
    int* destroyed;
    Probe(const Probe&) = default;
    Probe(std::uint64_t base, std::string s, int* d) : sso(std::move(s)),
                                                        destroyed(d) {
      for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = base + i;
    }
    ~Probe() {
      if (destroyed != nullptr) ++*destroyed;
    }
  };
  EventQueue q;
  int destroyed = 0;
  int intact_checks = 0;
  int children = 0;
  const std::uint32_t spawn = 3 * EventQueue::kSlotChunk + 5;
  auto parent = [&q, &intact_checks, &children, spawn,
                 probe = Probe(0xabc0, "sso", &destroyed)] {
    const auto intact = [&] {
      for (std::size_t i = 0; i < probe.pattern.size(); ++i) {
        if (probe.pattern[i] != 0xabc0 + i) return false;
      }
      return probe.sso == "sso";
    };
    for (std::uint32_t i = 0; i < spawn; ++i) {
      // A child the same size as the parent: were the parent's slot free,
      // the first child would be built over it.
      q.schedule(q.now() + Duration{1 + i},
                 [&children, filler = Probe(0xdead0, "sso", nullptr)] {
                   (void)filler;
                   ++children;
                 });
      if (intact()) ++intact_checks;
    }
  };
  static_assert(EventQueue::stores_inline<decltype(parent)>);
  q.schedule(RealTime{1}, std::move(parent));
  const int before_run = destroyed;  // moved-from temporaries
  q.run_one();
  EXPECT_EQ(intact_checks, int(spawn));
  EXPECT_EQ(destroyed, before_run + 1);  // the stored parent, once
  EXPECT_GE(q.slab_capacity(), std::size_t(3) * EventQueue::kSlotChunk);
  q.run_until(RealTime{10'000});
  EXPECT_EQ(children, int(spawn));
  EXPECT_EQ(destroyed, before_run + 1);
}

// Closures above kInlineCapacity are boxed: they keep their key order among
// inline ones and are destroyed, not leaked, whether they ran or not.
TEST(EventQueuePropertyTest, BoxedClosuresKeepKeyOrderAndAreDestroyed) {
  struct Big {
    std::array<std::byte, EventQueue::kInlineCapacity + 8> pad{};
  };
  auto tracker = std::make_shared<int>(0);
  std::vector<std::uint64_t> order;
  {
    EventQueue q;
    for (std::uint64_t seq = 0; seq < 40; ++seq) {
      if (seq % 3 == 0) {
        auto boxed = [&order, seq, big = Big{}, t = tracker] {
          (void)big;
          order.push_back(seq);
        };
        static_assert(!EventQueue::stores_inline<decltype(boxed)>);
        q.schedule(RealTime{5}, EventKey{2, 39 - seq}, std::move(boxed));
      } else {
        q.schedule(RealTime{5}, EventKey{2, 39 - seq},
                   [&order, seq] { order.push_back(seq); });
      }
    }
    // A boxed event still pending when the queue dies.
    q.schedule(RealTime{9}, [big = Big{}, t = tracker] { (void)big; });
    q.run_until(RealTime{5});
    EXPECT_GT(tracker.use_count(), 1);
  }
  EXPECT_EQ(tracker.use_count(), 1);
  std::vector<std::uint64_t> expected(40);
  for (std::uint64_t i = 0; i < 40; ++i) expected[i] = 39 - i;
  EXPECT_EQ(order, expected);
}

// for_each_pending<Network::Delivery> returns every copy in flight under
// the key it was minted with: (sender, even per-sender seq), one seq per
// copy in destination order, even when a constant delay gives the whole
// fan-out one delivery instant.
TEST(EventQueuePropertyTest, ForEachPendingReturnsEveryDeliveryUnderItsKey) {
  WorldConfig config;
  config.n = 5;
  config.link_delay = DelayModel::constant(microseconds(100));
  config.proc_delay = DelayModel::constant(Duration::zero());
  config.has_delay_models = true;
  World world(config);
  WireMessage msg;
  msg.kind = MsgKind::kSupport;
  msg.value = 9;
  world.network().send_all(0, msg);
  world.network().send_all(2, msg);
  world.network().send_all(0, msg);
  world.network().send(3, 1, msg);

  std::map<std::pair<std::uint32_t, std::uint64_t>, NodeId> seen;
  world.queue().for_each_pending<Network::Delivery>(
      [&](RealTime when, EventKey key, const Network::Delivery& d) {
        EXPECT_EQ(when, RealTime::zero() + microseconds(100));
        EXPECT_EQ(key.creator, d.msg.sender);
        EXPECT_EQ(d.msg.value, 9u);
        EXPECT_FALSE(d.forged);
        EXPECT_TRUE(seen.emplace(std::make_pair(key.creator, key.seq), d.dest)
                        .second);
      });
  std::map<std::pair<std::uint32_t, std::uint64_t>, NodeId> expected;
  for (NodeId dest = 0; dest < config.n; ++dest) {
    expected[{0, 2 * dest}] = dest;
    expected[{2, 2 * dest}] = dest;
    expected[{0, 2 * (config.n + dest)}] = dest;
  }
  expected[{3, 0}] = 1;
  EXPECT_EQ(seen, expected);

  world.run_until(RealTime::zero() + milliseconds(1));
  EXPECT_EQ(world.net_stats().delivered, expected.size());
  EXPECT_TRUE(world.queue().empty());
}

// ---------------------------------------------------------------- clock --

TEST(ClockTest, IdentityClock) {
  DriftingClock c{1.0, Duration::zero()};
  EXPECT_EQ(c.local_at(RealTime{12345}).ns(), 12345);
  EXPECT_EQ(c.real_at(LocalTime{12345}).ns(), 12345);
}

TEST(ClockTest, OffsetApplies) {
  DriftingClock c{1.0, milliseconds(5)};
  EXPECT_EQ(c.local_at(RealTime::zero()), LocalTime{milliseconds(5).ns()});
}

TEST(ClockTest, RateScales) {
  DriftingClock c{2.0, Duration::zero()};
  EXPECT_EQ(c.local_at(RealTime{1000}).ns(), 2000);
}

TEST(ClockTest, RoundTripWithinOneTick) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double rate = 1.0 + (rng.next_double() - 0.5) * 2e-4;
    DriftingClock c{rate, Duration{rng.next_in(-1'000'000, 1'000'000)}};
    const LocalTime tau{rng.next_in(0, 1'000'000'000)};
    const RealTime t = c.real_at(tau);
    // real_at returns the earliest real time with reading >= tau.
    EXPECT_GE(c.local_at(t), tau);
    EXPECT_LT(c.local_at(t) - tau, Duration{3});
  }
}

TEST(ClockTest, DriftBoundHolds) {
  const double rho = 1e-4;
  DriftingClock c{1.0 + rho, milliseconds(3)};
  const Duration real_iv = seconds(1);
  const Duration local_iv =
      c.local_at(RealTime::zero() + real_iv) - c.local_at(RealTime::zero());
  EXPECT_LE(double(local_iv.ns()), (1 + rho) * double(real_iv.ns()) + 1);
  EXPECT_GE(double(local_iv.ns()), (1 - rho) * double(real_iv.ns()) - 1);
}

// ---------------------------------------------------------- delay model --

TEST(DelayModelTest, ConstantAlwaysTypical) {
  Rng rng(1);
  const auto m = DelayModel::constant(microseconds(70));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(m.sample(rng), microseconds(70));
}

TEST(DelayModelTest, UniformWithinBounds) {
  Rng rng(2);
  const auto m = DelayModel::uniform(microseconds(10), microseconds(90));
  for (int i = 0; i < 1000; ++i) {
    const auto v = m.sample(rng);
    EXPECT_GE(v, microseconds(10));
    EXPECT_LE(v, microseconds(90));
  }
}

TEST(DelayModelTest, ExpTruncatedWithinBounds) {
  Rng rng(3);
  const auto m = DelayModel::exp_truncated(microseconds(20), microseconds(100));
  for (int i = 0; i < 1000; ++i) {
    const auto v = m.sample(rng);
    EXPECT_GE(v, Duration::zero());
    EXPECT_LE(v, microseconds(100));
  }
}

TEST(DelayModelTest, ExpTruncatedLowerBoundRespected) {
  Rng rng(4);
  const auto m = DelayModel::exp_truncated(microseconds(30), microseconds(50),
                                           microseconds(200));
  EXPECT_EQ(m.min, microseconds(30));
  for (int i = 0; i < 2000; ++i) {
    const auto v = m.sample(rng);
    EXPECT_GE(v, microseconds(30));
    EXPECT_LE(v, microseconds(200));
  }
}

TEST(DelayModelTest, ExpTruncatedLowerBoundKeepsOverallMean) {
  Rng rng(5);
  const auto m = DelayModel::exp_truncated(microseconds(100), microseconds(150),
                                           milliseconds(5));
  double sum = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) sum += double(m.sample(rng).ns());
  // Overall mean ≈ min + residual mean (truncation shaves a little off the
  // tail; cap = 100× the residual mean makes that negligible here).
  const double mean_us = sum / samples * 1e-3;
  EXPECT_GT(mean_us, 140.0);
  EXPECT_LT(mean_us, 160.0);
}

TEST(DelayModelTest, ExpTruncatedDegenerateFloorIsConstant) {
  Rng rng(6);
  const auto m = DelayModel::exp_truncated(microseconds(40), microseconds(40),
                                           microseconds(40));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(m.sample(rng), microseconds(40));
}

TEST(DelayModelDeathTest, ExpTruncatedValidatesMinMeanCap) {
  // min ≤ mean ≤ cap, violated on either side.
  EXPECT_DEATH((void)DelayModel::exp_truncated(
                   microseconds(50), microseconds(40), microseconds(100)),
               "precondition");
  EXPECT_DEATH((void)DelayModel::exp_truncated(
                   microseconds(10), microseconds(200), microseconds(100)),
               "precondition");
}

// -------------------------------------------------------------- network --

class RecordingBehavior : public NodeBehavior {
 public:
  void on_message(NodeContext&, const WireMessage& msg) override {
    received.push_back(msg);
  }
  std::vector<WireMessage> received;
};

WorldConfig small_world_config(std::uint32_t n, std::uint64_t seed = 1) {
  WorldConfig wc;
  wc.n = n;
  wc.delta = milliseconds(1);
  wc.pi = microseconds(50);
  wc.seed = seed;
  return wc;
}

TEST(NetworkTest, DeliversWithinBound) {
  World world(small_world_config(3));
  auto* receiver = new RecordingBehavior();
  world.set_behavior(1, std::unique_ptr<NodeBehavior>(receiver));
  world.start();

  WireMessage msg;
  msg.kind = MsgKind::kSupport;
  msg.value = 7;
  world.network().send(0, 1, msg);
  world.run_for(world.config().delta + world.config().pi);

  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_EQ(receiver->received[0].value, 7u);
  EXPECT_EQ(receiver->received[0].sender, 0u);  // authenticated
}

TEST(NetworkTest, SenderIdentityIsAuthenticated) {
  World world(small_world_config(3));
  auto* receiver = new RecordingBehavior();
  world.set_behavior(2, std::unique_ptr<NodeBehavior>(receiver));
  world.start();

  WireMessage msg;
  msg.sender = 1;  // lie about the origin
  world.network().send(0, 2, msg);
  world.run_for(milliseconds(2));
  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_EQ(receiver->received[0].sender, 0u);  // overwritten with truth
}

TEST(NetworkTest, SendAllReachesEveryNodeIncludingSelf) {
  World world(small_world_config(4));
  std::vector<RecordingBehavior*> receivers;
  for (NodeId i = 0; i < 4; ++i) {
    auto* r = new RecordingBehavior();
    receivers.push_back(r);
    world.set_behavior(i, std::unique_ptr<NodeBehavior>(r));
  }
  world.start();
  world.network().send_all(2, WireMessage{});
  world.run_for(milliseconds(2));
  for (auto* r : receivers) EXPECT_EQ(r->received.size(), 1u);
}

// Pins the contract the shared-payload fast path documents: a non-faulty
// send_all is BIT-IDENTICAL to n unicast sends — same wire history (kinds,
// times, endpoints, payloads), same stats, same rng consumption. Any edit
// that de-synchronizes the two code paths' bookkeeping fails here.
TEST(NetworkTest, SendAllIsBitIdenticalToUnicastFanOut) {
  struct Broadcaster : NodeBehavior {
    bool use_send_all;
    explicit Broadcaster(bool s) : use_send_all(s) {}
    void on_start(NodeContext& ctx) override {
      WireMessage msg;
      msg.kind = MsgKind::kSupport;
      msg.value = 5;
      if (use_send_all) {
        ctx.send_all(msg);
      } else {
        for (NodeId dest = 0; dest < ctx.n(); ++dest) ctx.send(dest, msg);
      }
    }
    void on_message(NodeContext&, const WireMessage&) override {}
  };

  const auto trace = [](bool use_send_all) {
    World world(small_world_config(5, 1234));
    TraceRecorder recorder;
    world.network().set_tap(recorder.tap());
    world.set_behavior(0, std::make_unique<Broadcaster>(use_send_all));
    world.start();
    world.run_for(milliseconds(3));
    std::vector<std::string> lines;
    for (const auto& event : recorder.events()) {
      lines.push_back(to_string(event));
    }
    return lines;
  };

  EXPECT_EQ(trace(true), trace(false));
}

TEST(NetworkTest, SendAllSharesOnePayloadAndRecyclesIt) {
  World world(small_world_config(5));
  std::vector<RecordingBehavior*> receivers;
  for (NodeId i = 0; i < 5; ++i) {
    auto* r = new RecordingBehavior();
    receivers.push_back(r);
    world.set_behavior(i, std::unique_ptr<NodeBehavior>(r));
  }
  world.start();

  // A body past Payload::kInlineCapacity, so it lives in the shared pool;
  // broadcast fan-out must share the ONE slot by refcount, not copy bytes.
  WireMessage msg;
  msg.kind = MsgKind::kApprove;
  msg.value = 9;
  msg.payload = make_patterned_payload(Payload::kInlineCapacity + 33, 9);
  const std::uint64_t copied_before = payload_pool().bytes_copied();
  world.network().send_all(1, msg);
  EXPECT_EQ(world.network().live_payloads(), 1u);  // one slot for all 5
  EXPECT_EQ(world.network().stats().sent, 5u);
  // Fan-out + per-delivery closures bumped refcounts only: zero new byte
  // copies after the original acquire.
  EXPECT_EQ(payload_pool().bytes_copied(), copied_before);

  world.run_for(milliseconds(2));
  // Receivers recorded their copies, which still pin the ONE shared slot.
  EXPECT_EQ(world.network().live_payloads(), 1u);
  for (auto* r : receivers) {
    ASSERT_EQ(r->received.size(), 1u);
    EXPECT_EQ(r->received[0].value, 9u);
    EXPECT_EQ(r->received[0].sender, 1u);  // authenticated on the shared copy
    EXPECT_EQ(r->received[0].payload,
              make_patterned_payload(Payload::kInlineCapacity + 33, 9));
  }
  EXPECT_EQ(world.network().stats().delivered, 5u);
  EXPECT_EQ(world.network().stats().payload_bytes,
            5u * (Payload::kInlineCapacity + 33));
  // Dropping every reference recycles the slot.
  msg.payload = Payload{};
  for (auto* r : receivers) r->received.clear();
  EXPECT_EQ(world.network().live_payloads(), 0u);

  // A second broadcast reuses the recycled pool slot rather than growing
  // the pool.
  msg.payload = make_patterned_payload(Payload::kInlineCapacity + 33, 10);
  world.network().send_all(0, msg);
  EXPECT_EQ(world.network().live_payloads(), 1u);
  msg.payload = Payload{};
  world.run_for(milliseconds(2));
  for (auto* r : receivers) r->received.clear();
  EXPECT_EQ(world.network().live_payloads(), 0u);
}

TEST(NetworkTest, InjectRawCanForgeSenders) {
  World world(small_world_config(3));
  auto* receiver = new RecordingBehavior();
  world.set_behavior(0, std::unique_ptr<NodeBehavior>(receiver));
  world.start();

  WireMessage msg;
  msg.sender = 2;  // forged — allowed only through the fault injector path
  world.network().inject_raw(0, msg, microseconds(10));
  world.run_for(milliseconds(1));
  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_EQ(receiver->received[0].sender, 2u);
  EXPECT_EQ(world.network().stats().forged, 1u);
}

TEST(NetworkTest, ChaosPeriodCanDropMessages) {
  auto wc = small_world_config(2, 99);
  wc.chaos.drop_prob = 1.0;
  wc.chaos.duplicate_prob = 0.0;
  wc.chaos.corrupt_prob = 0.0;
  World world(wc);
  auto* receiver = new RecordingBehavior();
  world.set_behavior(1, std::unique_ptr<NodeBehavior>(receiver));
  world.start();
  world.network().set_faulty_until(RealTime::zero() + milliseconds(10));

  world.network().send(0, 1, WireMessage{});
  world.run_for(milliseconds(5));
  EXPECT_TRUE(receiver->received.empty());
  EXPECT_EQ(world.network().stats().dropped, 1u);

  // After the chaos period, delivery resumes.
  world.run_for(milliseconds(6));  // now past faulty_until
  world.network().send(0, 1, WireMessage{});
  world.run_for(milliseconds(10));
  EXPECT_EQ(receiver->received.size(), 1u);
}

// A zero-width link-delay model used to degenerate the chaos delay cap to
// zero (link max × 20 = 0 ⇒ rng.next_in(0, 0) in the chaos path —
// instantaneous "chaos"). The constructor now clamps the cap to a positive
// floor; chaotic traffic still flows under the degenerate model.
TEST(NetworkTest, DegenerateChaosDelayCapClampsToPositiveFloor) {
  auto wc = small_world_config(2, 7);
  wc.link_delay = DelayModel::constant(Duration::zero());
  wc.proc_delay = DelayModel::constant(Duration::zero());
  wc.has_delay_models = true;
  wc.chaos.drop_prob = 0.0;
  wc.chaos.corrupt_prob = 0.0;
  wc.chaos.duplicate_prob = 0.0;
  World world(wc);
  EXPECT_GE(world.network().chaos_max_delay(), chaos_delay_floor());

  auto* receiver = new RecordingBehavior();
  world.set_behavior(1, std::unique_ptr<NodeBehavior>(receiver));
  world.start();
  world.network().set_faulty_until(RealTime::zero() + milliseconds(1));
  world.network().send(0, 1, WireMessage{});
  world.run_for(milliseconds(2));
  EXPECT_EQ(receiver->received.size(), 1u);  // chaos path sampled validly
}

// An explicitly configured sub-floor cap is clamped too; a configured cap
// at or above the floor is taken as-is.
TEST(NetworkTest, ConfiguredChaosDelayCapRespectsFloor) {
  auto wc = small_world_config(2, 7);
  wc.chaos.max_delay = Duration{1};  // 1 ns: positive but below the floor
  World clamped(wc);
  EXPECT_EQ(clamped.network().chaos_max_delay(), chaos_delay_floor());

  wc.chaos.max_delay = milliseconds(3);
  World configured(wc);
  EXPECT_EQ(configured.network().chaos_max_delay(), milliseconds(3));
}

// Forged deliveries ride the reserved kForgedCreator channel: at equal
// real-times they dispatch after node-creator events but before key-less
// world-channel events, by CONTENT — not by insertion order. Scheduling the
// world action first must not let it dispatch first.
TEST(NetworkTest, InjectRawUsesForgedChannelKeys) {
  World world(small_world_config(3, 11));
  auto* receiver = new RecordingBehavior();
  world.set_behavior(0, std::unique_ptr<NodeBehavior>(receiver));
  world.start();

  std::size_t delivered_before_action = 0;
  const Duration at = microseconds(50);
  // Key-less world event scheduled BEFORE the forged plant, same instant:
  // insertion order says the action goes first, the content-based channels
  // say the forged delivery does (kForgedCreator < kGlobalCreator).
  world.schedule(RealTime::zero() + at, 0, [&] {
    delivered_before_action = receiver->received.size();
  });
  WireMessage msg;
  msg.sender = 2;
  world.inject_raw(0, msg, at);
  world.run_for(milliseconds(1));

  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_EQ(delivered_before_action, 1u);  // forged delivery dispatched first
}

// A migration export reads the in-flight set straight out of the event
// queue: exactly the deliveries scheduled and not yet dispatched.
TEST(NetworkTest, ExportMigrationReadsInFlightDeliveries) {
  const auto chaotic_world = [] {
    auto world = std::make_unique<World>(small_world_config(3, 13));
    world->set_behavior(1, std::make_unique<RecordingBehavior>());
    world->start();
    world->network().set_faulty_until(RealTime::zero() + milliseconds(5));
    WireMessage msg;
    msg.value = 41;
    world->network().send(0, 1, msg);
    world->inject_raw(1, msg, milliseconds(2));
    return world;
  };

  auto world = chaotic_world();
  // Everything scheduled (chaos delivery unless dropped, plus the plant)
  // is in flight right now.
  const NetworkStats stats = world->net_stats();
  const std::uint64_t expected =
      (stats.sent - stats.dropped) + stats.duplicated + stats.forged;
  const WorldMigration m = world->export_migration();
  EXPECT_EQ(m.deliveries.size(), expected);
  EXPECT_TRUE(std::any_of(m.deliveries.begin(), m.deliveries.end(),
                          [](const Network::PendingDelivery& p) {
                            return p.forged;
                          }));

  auto drained = chaotic_world();
  drained->run_for(milliseconds(30));  // beyond any chaos delay
  EXPECT_TRUE(drained->export_migration().deliveries.empty());
}

// A migration export is terminal and one-shot: the exporting engine's
// in-flight state, wheel, and behaviors have been MOVED into the snapshot.
// A second export, or any further dispatch/scheduling/traffic, would fork
// the run against stale state — the guards turn that into an immediate
// precondition abort instead of a silent divergence.
class NetworkExportGuardTest : public ::testing::Test {
 protected:
  static std::unique_ptr<World> exported_world() {
    auto world = std::make_unique<World>(small_world_config(3, 7));
    world->set_behavior(0, std::make_unique<RecordingBehavior>());
    world->set_behavior(1, std::make_unique<RecordingBehavior>());
    world->start();
    world->run_before(RealTime::zero() + milliseconds(2));
    (void)world->export_migration();
    return world;
  }
};

TEST_F(NetworkExportGuardTest, SecondExportAborts) {
  auto world = exported_world();
  EXPECT_DEATH((void)world->export_migration(), "precondition");
}

TEST_F(NetworkExportGuardTest, DispatchAfterExportAborts) {
  auto world = exported_world();
  EXPECT_DEATH(world->run_until(RealTime::zero() + milliseconds(3)),
               "precondition");
}

TEST_F(NetworkExportGuardTest, ScheduleAfterExportAborts) {
  auto world = exported_world();
  EXPECT_DEATH(world->schedule(RealTime::zero() + milliseconds(3), 0, [] {}),
               "precondition");
}

TEST_F(NetworkExportGuardTest, SerialSurfaceRefusesTrafficAfterExport) {
  auto world = exported_world();
  // network() and queue() themselves guard: traffic or events put into a
  // dead world would be missing from the snapshot it already handed over.
  WireMessage msg;
  EXPECT_DEATH(world->network().send(0, 1, msg), "precondition");
  EXPECT_DEATH(world->inject_raw(1, msg, milliseconds(1)), "precondition");
  EXPECT_DEATH((void)world->queue(), "precondition");
}

TEST(NetworkTest, StatsCountPerKind) {
  World world(small_world_config(2));
  world.set_behavior(0, std::make_unique<RecordingBehavior>());
  world.set_behavior(1, std::make_unique<RecordingBehavior>());
  world.start();
  WireMessage msg;
  msg.kind = MsgKind::kApprove;
  world.network().send(0, 1, msg);
  world.network().send(0, 1, msg);
  EXPECT_EQ(world.network().stats().per_kind[std::size_t(MsgKind::kApprove)],
            2u);
  EXPECT_EQ(world.network().stats().sent, 2u);
}

// ---------------------------------------------------------------- world --

class TimerBehavior : public NodeBehavior {
 public:
  void on_start(NodeContext& ctx) override {
    ctx.set_timer_after(milliseconds(3), 42);
  }
  void on_message(NodeContext&, const WireMessage&) override {}
  void on_timer(NodeContext& ctx, std::uint64_t cookie) override {
    fired_cookie = cookie;
    fired_at = ctx.local_now();
  }
  std::uint64_t fired_cookie = 0;
  LocalTime fired_at{};
};

TEST(WorldTest, LocalTimersFireAtLocalTime) {
  World world(small_world_config(2, 31));
  auto* behavior = new TimerBehavior();
  world.set_behavior(0, std::unique_ptr<NodeBehavior>(behavior));
  const LocalTime start = world.local_now(0);
  world.start();
  world.run_for(milliseconds(5));
  EXPECT_EQ(behavior->fired_cookie, 42u);
  const Duration elapsed = behavior->fired_at - start;
  EXPECT_GE(elapsed, milliseconds(3));
  EXPECT_LT(elapsed, milliseconds(3) + microseconds(10));
}

TEST(WorldTest, ClockOffsetsAreArbitraryButQueryable) {
  World world(small_world_config(5, 77));
  // local_now differs across nodes (offsets up to max_clock_offset).
  bool any_diff = false;
  for (NodeId i = 1; i < 5; ++i) {
    if (world.local_now(i) != world.local_now(0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
  // real_at inverts local_at.
  for (NodeId i = 0; i < 5; ++i) {
    const LocalTime tau = world.local_now(i) + milliseconds(7);
    const RealTime t = world.real_at(i, tau);
    EXPECT_GE(world.clock(i).local_at(t), tau);
  }
}

TEST(WorldTest, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    World world(small_world_config(4, seed));
    auto* r = new RecordingBehavior();
    world.set_behavior(3, std::unique_ptr<NodeBehavior>(r));
    world.start();
    for (int i = 0; i < 20; ++i) {
      WireMessage msg;
      msg.value = Value(i);
      world.network().send(0, 3, msg);
    }
    world.run_for(milliseconds(10));
    std::vector<Value> values;
    for (const auto& m : r->received) values.push_back(m.value);
    return values;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(WorldTest, BehaviorReplacementTakesEffect) {
  World world(small_world_config(2));
  auto* first = new RecordingBehavior();
  world.set_behavior(1, std::unique_ptr<NodeBehavior>(first));
  world.start();
  world.network().send(0, 1, WireMessage{});
  world.run_for(milliseconds(2));
  EXPECT_EQ(first->received.size(), 1u);

  auto* second = new RecordingBehavior();
  world.set_behavior(1, std::unique_ptr<NodeBehavior>(second));
  world.network().send(0, 1, WireMessage{});
  world.run_for(milliseconds(2));
  EXPECT_EQ(second->received.size(), 1u);
}

// ------------------------------------------------------- fault injector --

TEST(FaultInjectorTest, PlantsSpuriousMessages) {
  World world(small_world_config(3, 13));
  std::vector<RecordingBehavior*> receivers;
  for (NodeId i = 0; i < 3; ++i) {
    auto* r = new RecordingBehavior();
    receivers.push_back(r);
    world.set_behavior(i, std::unique_ptr<NodeBehavior>(r));
  }
  world.start();

  FaultInjector injector(world);
  TransientFaultConfig config;
  config.spurious_per_node = 10;
  config.scramble_state = false;
  config.scramble_clocks = false;
  injector.transient_fault(config);
  world.run_for(config.spurious_span + milliseconds(1));

  for (auto* r : receivers) EXPECT_EQ(r->received.size(), 10u);
  EXPECT_EQ(world.network().stats().forged, 30u);
}

TEST(FaultInjectorTest, ScramblesClocks) {
  World world(small_world_config(4, 17));
  std::vector<LocalTime> before;
  for (NodeId i = 0; i < 4; ++i) before.push_back(world.local_now(i));

  FaultInjector injector(world);
  TransientFaultConfig config;
  config.spurious_per_node = 0;
  config.scramble_state = false;
  config.scramble_clocks = true;
  injector.transient_fault(config);

  bool changed = false;
  for (NodeId i = 0; i < 4; ++i) {
    if (world.local_now(i) != before[i]) changed = true;
  }
  EXPECT_TRUE(changed);
}

}  // namespace
}  // namespace ssbft
