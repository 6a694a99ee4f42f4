// SpinBarrier: a reusable thread barrier for short, frequent phases.
//
// The windowed engine (sim/shard_world.hpp) crosses a barrier twice per
// λ-window, and a window is typically tens of microseconds of work. A
// barrier that parks every waiter at once pays a futex sleep and wake per
// crossing, about as much as the window itself, so arrivals here first spin
// a bounded, constant number of iterations on the generation word (about
// 0.3-0.4 ms at 20-25 ns per `pause`) and only then park on
// std::atomic::wait. Every kYieldEvery-th iteration yields the CPU instead
// of pausing: on an oversubscribed host the party being waited for may be
// runnable but descheduled, and a pure spin would hold its CPU for the
// whole budget (4 concurrent 4-shard runs on 4 hardware threads measured
// 3x slower than with an immediately parking barrier; with the yield,
// within noise of it). The last arriver runs the completion step while every other
// party is held, then publishes the next generation and notifies.
//
// Memory ordering: every write a party makes before arrive_and_wait
// happens-before the completion step (release/acquire on the arrival
// counter's RMW chain), and the completion step's writes happen-before
// every party's return (release store / acquire load of the generation).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "util/assert.hpp"

namespace ssbft {

class SpinBarrier {
 public:
  /// Bounded spin budget per crossing before parking. Constant on purpose:
  /// the budget must not depend on measured timings, or a loaded host
  /// would feed back into how long workers burn a core.
  static constexpr std::uint32_t kSpins = 16384;
  static constexpr std::uint32_t kYieldEvery = 256;

  explicit SpinBarrier(std::uint32_t parties) : parties_(parties) {
    SSBFT_EXPECTS(parties > 0);
  }

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Arrive and wait for the other parties. The last to arrive runs
  /// `completion()` (exactly once per generation, before anyone returns).
  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    // Cannot advance before this party arrives, so a relaxed read is the
    // current generation.
    const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      completion();
      generation_.store(gen + 1, std::memory_order_release);
      if (parties_ > 1) generation_.notify_all();
      return;
    }
    for (std::uint32_t i = 0; i < kSpins; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      if (i % kYieldEvery == kYieldEvery - 1) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
      generation_.wait(gen, std::memory_order_acquire);
    }
  }

  void arrive_and_wait() {
    arrive_and_wait([] {});
  }

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  const std::uint32_t parties_;
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

}  // namespace ssbft
