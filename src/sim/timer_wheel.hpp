// Hierarchical timer wheel (Varghese–Lauck) for dense protocol timers.
//
// Every protocol layer in the stack is driven by short-horizon timers —
// round deadlines, pulse watchdogs, stabilization back-offs. Keeping those
// in the engine's event heap costs an O(log n) sift per arm/fire, and the
// 4096-in-flight row of bench_engine shows that sift becoming the hot path
// once allocation is gone. The wheel replaces it with O(1) schedule/cancel:
//
//   * kLevels levels of kSlots slots each; a level-L slot spans kSlots^L
//     ticks (1 tick = 2^kTickShift ns), so the wheel covers kSlots^kLevels
//     ticks (~6.4 days of simulated time). Timers beyond that horizon — or
//     whose path crosses the top-level span boundary — wait on an overflow
//     list and are scattered into the wheel once they come into range.
//   * Records live in a slab (index-addressed vector + free list) and are
//     linked into their slot through intrusive doubly-linked lists, so
//     cancel is one unlink. Handles are (index, generation) tickets; every
//     release bumps the generation, making stale handles harmless.
//   * Advancing is lazily cascading: nothing moves until advance() runs,
//     which walks only *occupied* slots (one occupancy bitmap per level)
//     up to the target time, re-scattering higher-level slots downward and
//     collecting due records into a batch.
//
// Determinism is delegated, not re-proven: the wheel never dispatches.
// Batched expiry hands each due record — with its original real-time and
// content-based (creator, seq) EventKey — to the engine, which schedules it
// into the slab EventQueue; the heap's total order on (when, creator, seq)
// then reproduces the exact serial dispatch order no matter how records
// were binned into slots or in which order a batch drained. A record may be
// handed over up to one tick early (slot granularity); that is unobservable
// for the same reason. See README "Timer subsystem" for the full argument.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"  // EventKey
#include "util/assert.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ssbft {

class TimerWheel {
 public:
  static constexpr std::uint32_t kSlotBits = 6;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;  // 64 per level
  static constexpr std::uint32_t kLevels = 6;
  /// One tick = 2^13 ns ≈ 8 µs: far below every protocol constant (d is
  /// ~ms-scale, the shortest watchdogs are tens of µs), so ms-scale timers
  /// land within the two lowest levels and dense periodic populations
  /// cross only a handful of slots per period — while hand-over stays at
  /// most one tick early, a depth the heap re-orders for free.
  static constexpr std::uint32_t kTickShift = 13;
  static constexpr std::uint64_t kHorizonTicks = 1ull
                                                 << (kSlotBits * kLevels);

  /// One expired record, ready to be scheduled into the EventQueue. The
  /// record stays allocated (claimable/cancellable) until claim().
  struct Due {
    RealTime when;
    EventKey key;
    TimerHandle handle;
  };

  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;
  TimerWheel(TimerWheel&&) = default;  // a migration cut moves the wheel
  TimerWheel& operator=(TimerWheel&&) = default;

  /// Arm a timer: O(1). `when` must be ≥ 0 (simulation epoch); a `when` at
  /// or before the wheel's current time goes onto the ready list and comes
  /// out of the next advance() (zero-delay timers fire, never vanish).
  /// Defined inline below — this is the per-event hot path.
  [[nodiscard]] TimerHandle schedule(RealTime when, EventKey key, NodeId node,
                                     std::uint64_t cookie);

  /// Arm a record WITHOUT linking it into the wheel — the heap-backed
  /// fallback path, where the caller schedules the fire event itself and
  /// only needs claim()/cancel() semantics. The key is carried so that
  /// recall_handed_over can re-materialize the fire event under its
  /// original (creator, seq) position in the total order.
  [[nodiscard]] TimerHandle arm_external(RealTime when, EventKey key,
                                         NodeId node, std::uint64_t cookie);

  /// Cancel: O(1). True iff the handle named a live timer (armed in the
  /// wheel or already handed to the engine but not yet fired) — that timer
  /// will never fire. Invalid/stale/fired handles return false, harmlessly.
  bool cancel(TimerHandle handle);

  /// Fire-time resolution, called by the engine's scheduled closure. True
  /// iff the record is still live: fills (node, cookie) and releases the
  /// record. False means the timer was cancelled after hand-over.
  [[nodiscard]] bool claim(TimerHandle handle, NodeId& node,
                           std::uint64_t& cookie);

  /// Lower bound on the earliest armed record's fire time (slot
  /// granularity), or RealTime::max() when nothing is armed. Guaranteed ≤
  /// the true minimum, and guaranteed to exceed `t` after advance(t) — the
  /// engine loop's progress condition. O(1): served from a cache that
  /// schedule() min-merges and advance() refreshes (a cancel may leave it
  /// stale-LOW, which costs one empty advance, never correctness).
  [[nodiscard]] RealTime next_due() const {
    if (!next_due_valid_) {
      next_due_cache_ = compute_next_due();
      next_due_valid_ = true;
    }
    return next_due_cache_;
  }

  /// Advance wheel time to `t`, cascading lazily; `out` receives every due
  /// record (cleared first). Records whose slot straddles `t` may be handed
  /// over up to one tick early — the EventQueue's key order makes that
  /// unobservable. O(occupied slots crossed + batch size).
  void advance(RealTime t, std::vector<Due>& out);

  /// Records armed in the wheel (slots + ready + overflow); excludes
  /// records already handed to the engine.
  [[nodiscard]] std::size_t armed() const { return armed_; }
  /// Records alive in the slab (armed + handed-over-but-unclaimed).
  [[nodiscard]] std::size_t live() const { return live_; }
  /// High-water mark of live(): the most timer records this wheel ever
  /// held at once (capacity-planning gauge; stats_registry leaf
  /// wheel.peak_records).
  [[nodiscard]] std::size_t peak_live() const { return peak_live_; }
  /// Far-future records parked beyond the wheel horizon.
  [[nodiscard]] std::size_t overflow_size() const { return overflow_count_; }

  // --- engine-migration surface (sim/duty_world.hpp) -----------------------
  // A migration cut moves the whole wheel to the adopting engine: records,
  // slab and generation tickets travel together, so every TimerHandle a
  // behavior holds keeps naming its timer.

  /// Put every record already handed to the engine (fire event pending in
  /// the queue) back into the wheel. Called at a cut, whose queue dies with
  /// the exporting engine: the adopter's next advance hands each record
  /// over again with its original (when, key, handle).
  void recall_handed_over();

 private:
  static constexpr std::uint32_t kNull = ~std::uint32_t{0};
  // List ids: one per slot, then the ready and overflow lists. Records
  // handed to the engine (kInHeap) or free (kFree) are in no list.
  static constexpr std::uint32_t kSlotLists = kLevels * kSlots;
  static constexpr std::uint32_t kReadyList = kSlotLists;
  static constexpr std::uint32_t kOverflowList = kSlotLists + 1;
  static constexpr std::uint32_t kListCount = kSlotLists + 2;
  static constexpr std::uint32_t kInHeap = ~std::uint32_t{0} - 1;
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};

  struct Record {
    RealTime when{};
    std::uint64_t seq = 0;     // EventKey half
    std::uint64_t cookie = 0;  // protocol payload, opaque to the wheel
    std::uint32_t creator = 0; // EventKey half
    NodeId node = 0;
    std::uint32_t generation = 0;
    std::uint32_t prev = kNull;
    std::uint32_t next = kNull;
    std::uint32_t list = kFree;
  };

  [[nodiscard]] static std::uint64_t tick_of(RealTime t) {
    SSBFT_ASSERT(t.ns() >= 0);
    return std::uint64_t(t.ns()) >> kTickShift;
  }

  [[nodiscard]] std::uint32_t alloc_record();
  void release_record(std::uint32_t index);

  void link(std::uint32_t index, std::uint32_t list);
  void unlink(std::uint32_t index);

  /// Place an unlinked record relative to the current tick: a wheel slot
  /// within the horizon, the overflow list beyond it. A record already due
  /// goes straight into `out` when draining (`out` non-null), onto the
  /// ready list otherwise (zero-delay schedule; the next advance flushes).
  void place(std::uint32_t index, std::vector<Due>* out);

  /// Move the ready list into `out`, marking each record kInHeap.
  void flush_ready(std::vector<Due>& out);

  [[nodiscard]] RealTime compute_next_due() const;

  /// Earliest occupied slot across all levels: absolute start tick + list
  /// id. kNull list when every slot is empty.
  void earliest_slot(std::uint64_t& slot_tick, std::uint32_t& list) const;

  /// Re-scatter overflow records that came into range of the wheel.
  /// Returns true if anything moved (the next-due cache must recompute).
  bool rescan_overflow(std::vector<Due>& out);

  std::vector<Record> records_;
  std::uint32_t free_head_ = kNull;
  std::vector<std::uint32_t> heads_ =
      std::vector<std::uint32_t>(kListCount, kNull);
  std::uint64_t occupied_[kLevels] = {};  // bit s ⇔ slot s non-empty
  std::uint64_t tick_ = 0;                // wheel time (ticks)
  RealTime ready_min_ = RealTime::max();  // min `when` on the ready list
  mutable RealTime next_due_cache_ = RealTime::max();
  mutable bool next_due_valid_ = true;  // empty wheel: max() is exact
  std::uint64_t overflow_min_tick_ = ~std::uint64_t{0};  // lower bound
  std::size_t armed_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::size_t overflow_count_ = 0;
};

// --- inline hot path (one arm per protocol timer per fire) -----------------

inline std::uint32_t TimerWheel::alloc_record() {
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  if (free_head_ != kNull) {
    const std::uint32_t index = free_head_;
    free_head_ = records_[index].next;
    records_[index].next = kNull;
    return index;
  }
  records_.emplace_back();
  return std::uint32_t(records_.size() - 1);
}

inline void TimerWheel::link(std::uint32_t index, std::uint32_t list) {
  Record& r = records_[index];
  r.list = list;
  r.prev = kNull;
  r.next = heads_[list];
  if (r.next != kNull) records_[r.next].prev = index;
  heads_[list] = index;
  ++armed_;
  if (list < kSlotLists) {
    occupied_[list / kSlots] |= 1ull << (list % kSlots);
  } else if (list == kOverflowList) {
    ++overflow_count_;
  }
}

inline void TimerWheel::place(std::uint32_t index, std::vector<Due>* out) {
  Record& r = records_[index];
  const std::uint64_t when_tick = tick_of(r.when);
  if (when_tick <= tick_) {
    // Due (or zero-delay). Draining: straight into the batch. Scheduling:
    // stage on the ready list; the next advance() hands it to the engine.
    // It never silently disappears either way.
    if (out != nullptr) {
      r.list = kInHeap;
      out->push_back(Due{r.when, EventKey{r.creator, r.seq},
                         TimerHandle{index, r.generation}});
      return;
    }
    ready_min_ = std::min(ready_min_, r.when);
    if (next_due_valid_ && r.when < next_due_cache_) next_due_cache_ = r.when;
    link(index, kReadyList);
    return;
  }
  // Level = position of the highest bit where the target tick differs from
  // the current tick (the Tokio formulation). Unlike a raw log2 of the
  // delta, this guarantees the slot is STRICTLY ahead of the level's
  // current slot in the same rotation — the invariant earliest_slot() and
  // the no-wrap scan rely on. A difference above the top level (a target in
  // another kSlots^kLevels span) parks on the overflow list.
  const std::uint64_t distinct = (tick_ ^ when_tick) | (kSlots - 1);
  const std::uint32_t level =
      (63u - std::uint32_t(std::countl_zero(distinct))) / kSlotBits;
  if (level >= kLevels) {
    overflow_min_tick_ = std::min(overflow_min_tick_, when_tick);
    if (next_due_valid_) {
      next_due_cache_ =
          std::min(next_due_cache_,
                   RealTime{std::int64_t(overflow_min_tick_ << kTickShift)});
    }
    link(index, kOverflowList);
    return;
  }
  const std::uint32_t slot =
      std::uint32_t(when_tick >> (kSlotBits * level)) & (kSlots - 1);
  // The slot's start tick is the record's lower bound — min-merge it into
  // the next-due cache so next_due() stays O(1).
  if (next_due_valid_) {
    const std::uint64_t start = (when_tick >> (kSlotBits * level))
                                << (kSlotBits * level);
    next_due_cache_ = std::min(next_due_cache_,
                               RealTime{std::int64_t(start << kTickShift)});
  }
  link(index, level * kSlots + slot);
}

inline TimerHandle TimerWheel::schedule(RealTime when, EventKey key,
                                        NodeId node, std::uint64_t cookie) {
  const std::uint32_t index = alloc_record();
  Record& r = records_[index];
  r.when = when;
  r.seq = key.seq;
  r.creator = key.creator;
  r.node = node;
  r.cookie = cookie;
  place(index, nullptr);
  return TimerHandle{index, r.generation};
}

/// The serial World's drain-loop policy, kept next to the wheel so the
/// subtle bound choice lives in exactly one place: returns the time to
/// advance the wheel to before the next dispatch, or RealTime::max() when
/// no pump is needed. Pump when the wheel's next-due lower bound does not
/// exceed the next heap event or the loop's limit (run target / window
/// end). Bound: everything the next dispatch could need — but with an
/// empty queue, only the wheel's own next slot; pulling further ahead
/// would re-inflate the heap the wheel exists to keep small.
[[nodiscard]] inline RealTime timer_pump_bound(const EventQueue& queue,
                                              const TimerWheel& timers,
                                              RealTime limit) {
  const RealTime next_event =
      queue.empty() ? RealTime::max() : queue.next_time();
  const RealTime next_timer = timers.next_due();  // lower bound
  if (next_timer > next_event || next_timer > limit) return RealTime::max();
  return queue.empty() ? next_timer : std::min(next_event, limit);
}

}  // namespace ssbft
