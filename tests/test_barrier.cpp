// SpinBarrier (util/spin_barrier.hpp): the windowed engine's per-window
// barrier. Each generation's completion step must run exactly once, after
// every party's pre-barrier writes, and before any party returns — for
// tens of thousands of back-to-back generations, through both the spin
// path and the park path. The plain (non-atomic) slots below make the
// ordering claims checkable by ThreadSanitizer as well as by value.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/spin_barrier.hpp"

namespace ssbft {
namespace {

constexpr std::uint32_t kParties = 4;
constexpr std::uint64_t kGenerations = 20'000;

TEST(SpinBarrierTest, CompletionRunsOncePerGenerationAndSeesEveryWrite) {
  SpinBarrier barrier(kParties);
  std::vector<std::uint64_t> slots(kParties, ~std::uint64_t{0});
  std::uint64_t completions = 0;    // written only by completion steps
  std::uint64_t stale_in_completion = 0;
  std::vector<std::uint64_t> stale_after(kParties, 0);

  const auto party = [&](std::uint32_t t) {
    for (std::uint64_t g = 0; g < kGenerations; ++g) {
      slots[t] = g;
      barrier.arrive_and_wait([&] {
        for (const std::uint64_t v : slots) stale_in_completion += v != g;
        ++completions;
      });
      // The completion step of generation g has run, exactly once so far.
      stale_after[t] += completions != g + 1;
      // A second, completion-free crossing per generation (the engine's
      // process → drain step): nobody may write slots[t] for g + 1 until
      // every party has finished reading `completions` above.
      barrier.arrive_and_wait();
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t t = 1; t < kParties; ++t) pool.emplace_back(party, t);
  party(0);
  for (auto& th : pool) th.join();

  EXPECT_EQ(completions, kGenerations);
  EXPECT_EQ(stale_in_completion, 0u);
  for (std::uint32_t t = 0; t < kParties; ++t) {
    EXPECT_EQ(stale_after[t], 0u) << "party " << t;
  }
}

// A party that lags far past the spin budget forces the others onto the
// park path (std::atomic::wait); the completion must still wake them.
TEST(SpinBarrierTest, ParkedPartiesWakeOnCompletion) {
  constexpr std::uint64_t kRounds = 50;
  SpinBarrier barrier(kParties);
  std::uint64_t completions = 0;
  std::vector<std::uint64_t> stale(kParties, 0);
  const auto party = [&](std::uint32_t t) {
    for (std::uint64_t g = 0; g < kRounds; ++g) {
      if (t == g % kParties) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      barrier.arrive_and_wait([&] { ++completions; });
      stale[t] += completions != g + 1;
      barrier.arrive_and_wait();
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t t = 1; t < kParties; ++t) pool.emplace_back(party, t);
  party(0);
  for (auto& th : pool) th.join();
  EXPECT_EQ(completions, kRounds);
  for (std::uint32_t t = 0; t < kParties; ++t) {
    EXPECT_EQ(stale[t], 0u) << "party " << t;
  }
}

// One party: every crossing completes inline, on the caller's thread.
TEST(SpinBarrierTest, SinglePartyCompletesInline) {
  SpinBarrier barrier(1);
  std::uint64_t completions = 0;
  for (std::uint64_t g = 0; g < 100; ++g) {
    barrier.arrive_and_wait([&] { ++completions; });
    EXPECT_EQ(completions, g + 1);
  }
}

}  // namespace
}  // namespace ssbft
