// Deterministic discrete-event queue over a slab-backed event store.
//
// Events are dispatched in (when, creator, seq) order: equal real-times are
// broken by a *content-based* EventKey — the id of the node (or world) that
// caused the event plus a per-creator monotone sequence — never by global
// insertion order. A per-creator key is reproducible without knowing the
// global schedule, which is what lets the sharded engine (sim/shard_world)
// dispatch the exact serial order while executing shards concurrently: each
// creator's handlers run in the same relative order on any engine, so each
// creator mints the same key sequence. Events scheduled through the key-less
// overload (workload injections, tests, tools) share one world-level creator
// with an internal counter and thus keep plain insertion-order semantics
// among themselves. A run remains a pure function of the seed either way.
//
// Hot-path layout: the callables live in fixed-size slots of a slab
// recycled through a free list, and a 4-ary min-heap orders 16-byte
// {when, creator, slot} entries. The seq half of the key is read only when
// `when` and `creator` tie (the copies of a constant-delay broadcast, or
// timers re-armed in lock-step), so it lives off the heap, in a dense
// array indexed by slot: a tie costs two reads from that array rather than
// two cache misses into the 160-byte slots. A callable whose closure fits
// kInlineCapacity is built directly in its slot (emplace) — scheduling and
// dispatching it performs no heap allocation on the steady path (the slab,
// seq and heap vectors only grow until they cover the peak in-flight
// population). Oversized closures are boxed transparently. Dispatch runs the callable IN PLACE, then destroys it and
// frees its slot: slots live in address-stable chunks and a running slot
// is not on the free list, so a running event may schedule freely (even
// growing the slab) while it reads its own captures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace ssbft {

/// Creator id for events not attributable to one node (workload injections,
/// tests). Sorts after every node at equal times.
inline constexpr std::uint32_t kGlobalCreator = ~std::uint32_t{0};

/// Creator id for fault-injector forged deliveries (inject_raw). A reserved
/// channel — not insertion order — so a forged delivery dispatches at the
/// same point of the total order on every engine (serial, sharded, and the
/// chaos-prefix handoff between them). Sorts after every node but before
/// the world-level creator at equal times.
inline constexpr std::uint32_t kForgedCreator = ~std::uint32_t{0} - 1;

/// Content-based tie-break key: who caused the event, and which of that
/// creator's scheduled events it is. Both simulation engines mint identical
/// keys for identical histories, so dispatch order is engine-independent.
/// `seq` namespaces must be disjoint per creator across schedule paths (the
/// engines use even seqs for network deliveries, odd for timers).
struct EventKey {
  std::uint32_t creator = kGlobalCreator;
  std::uint64_t seq = 0;
};

class EventQueue {
 public:
  /// Closures up to this size (and std::max_align_t alignment) are stored
  /// inline in a slab slot; larger ones fall back to one boxed allocation.
  /// 144 bytes is exactly a network delivery (engine pointer + destination
  /// + WireMessage, whose payload handle carries an inline body up to one
  /// cacheline — pooled bodies ride as a slot reference, so the closure
  /// stays flat), the largest closure the simulator schedules.
  static constexpr std::size_t kInlineCapacity = 144;

  /// Slots per slab chunk. Slots live in fixed chunks so their addresses
  /// are STABLE while events are pending or running: growing the slab must
  /// never relocate a live stored closure (a byte-wise vector reallocation
  /// would bypass its move constructor — undefined behavior for
  /// self-referential captures like an SSO std::string — and would pull a
  /// running event out from under itself). One allocation per kSlotChunk
  /// slots at warm-up, none steady-state.
  static constexpr std::uint32_t kSlotChunk = 64;

  /// Does a callable of type `Fn` live inline in its slot (not boxed)?
  template <class Fn>
  static constexpr bool stores_inline =
      sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(std::max_align_t);

  EventQueue() = default;
  ~EventQueue() { clear(); }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `action` (any void() callable, move-only allowed) at absolute
  /// real-time `when` under the world-level creator (insertion-ordered among
  /// key-less events). `when` must not precede the last dispatched event
  /// (no time travel).
  template <class F>
  void schedule(RealTime when, F&& action) {
    schedule(when, EventKey{kGlobalCreator, global_seq_++},
             std::forward<F>(action));
  }

  /// Schedule with an explicit creator key (see EventKey). The caller owns
  /// the per-creator seq discipline: keys must be unique and, per creator,
  /// minted in monotone order.
  template <class F>
  void schedule(RealTime when, EventKey key, F&& action) {
    emplace<std::decay_t<F>>(when, key, std::forward<F>(action));
  }

  /// Build an `Fn` from `args` directly in its slot and schedule it under
  /// `key` — the one construction of the event, no temporary to move.
  template <class Fn, class... Args>
  void emplace(RealTime when, EventKey key, Args&&... args) {
    if constexpr (stores_inline<Fn>) {
      SSBFT_EXPECTS(when >= now_);
      const std::uint32_t index = acquire_slot();
      Slot& target = slot(index);
      ::new (static_cast<void*>(target.storage))
          Fn(std::forward<Args>(args)...);
      target.ops = &ops_for<Fn>();
      seqs_[index] = key.seq;
      push_entry(Entry{when, key.creator, index});
    } else {
      // Box the oversized closure; the slot then holds only the pointer.
      emplace<Boxed<Fn>>(
          when, key, std::make_unique<Fn>(std::forward<Args>(args)...));
    }
  }

  /// Read-only visit of every pending event whose callable is a `Fn`:
  /// calls `visit(when, key, const Fn&)` in heap order. Events of any other
  /// callable type are skipped. This is how an engine migration reads its
  /// in-flight deliveries and world actions: the queue is their only record.
  template <class Fn, class Visit>
  void for_each_pending(Visit&& visit) const {
    static_assert(stores_inline<Fn>, "boxed closures are not visitable");
    const Ops* const ops = &ops_for<Fn>();
    for (const Entry& entry : heap_) {
      const Slot& pending = slot(entry.slot);
      if (pending.ops != ops) continue;
      visit(entry.when, EventKey{entry.creator, seqs_[entry.slot]},
            *std::launder(reinterpret_cast<const Fn*>(pending.storage)));
    }
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Real-time of the next event; EXPECTS non-empty.
  [[nodiscard]] RealTime next_time() const {
    SSBFT_EXPECTS(!heap_.empty());
    return heap_.front().when;
  }

  /// Dispatch the next event, advancing `now()` to its time.
  void run_one();

  /// Dispatch all events with time <= deadline (inclusive); `now()` ends at
  /// max(now, deadline).
  void run_until(RealTime deadline);

  /// Current simulation time (time of the last dispatched event).
  [[nodiscard]] RealTime now() const { return now_; }

  /// Stable pointer to the clock, for observers that sample it across many
  /// dispatches (the tracer's armed Scope). Valid for the queue's lifetime.
  [[nodiscard]] const RealTime* now_ptr() const { return &now_; }

  /// Number of events dispatched so far.
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  /// Position of the world-level creator's counter (the seq the next
  /// key-less schedule will mint). The chaos-prefix handoff transplants it
  /// so the sharded suffix continues the exact key sequence.
  [[nodiscard]] std::uint64_t global_seq() const { return global_seq_; }

  /// Adopt the clock/counter positions of a migrated run (engine handoff).
  /// Only legal on a pristine queue — nothing scheduled or dispatched yet —
  /// so the adopted positions cannot contradict prior activity.
  void adopt(RealTime now, std::uint64_t global_seq, std::uint64_t dispatched) {
    SSBFT_EXPECTS(heap_.empty() && now_ == RealTime{} && global_seq_ == 0 &&
                  dispatched_ == 0);
    now_ = now;
    global_seq_ = global_seq;
    dispatched_ = dispatched;
  }

  /// Slab slots currently allocated (diagnostics; peak in-flight events,
  /// rounded up to whole chunks).
  [[nodiscard]] std::size_t slab_capacity() const {
    return slab_.size() * kSlotChunk;
  }

  /// Bytes resident in the queue's backing stores (closure slab, seq
  /// array, heap array). All are grow-only, so the current footprint IS
  /// the peak footprint — no per-operation tracking needed.
  [[nodiscard]] std::size_t peak_bytes() const {
    return slab_capacity() * sizeof(Slot) +
           seqs_.capacity() * sizeof(std::uint64_t) +
           heap_.capacity() * sizeof(Entry);
  }

 private:
  static constexpr std::uint32_t kNullSlot = ~std::uint32_t{0};

  /// Type-erased operations on a stored callable. One static table per
  /// closure type — the slab slots stay POD-sized.
  struct Ops {
    /// In-place dispatch: run the callable where it lies, destroy it, then
    /// recycle its slot — one indirect call for the whole dispatch.
    void (*run)(EventQueue& queue, std::uint32_t slot);
    void (*destroy)(void* obj);
  };

  template <class Fn>
  [[nodiscard]] static const Ops& ops_for() {
    static constexpr Ops ops{
        [](EventQueue& queue, std::uint32_t index) {
          // The slot's chunk never moves and the slot stays off the free
          // list until release, so the action may schedule freely (even
          // growing the slab) while it reads its own captures.
          Fn* stored =
              std::launder(reinterpret_cast<Fn*>(queue.slot(index).storage));
          (*stored)();
          stored->~Fn();
          queue.release_slot(index);
        },
        [](void* obj) { std::launder(reinterpret_cast<Fn*>(obj))->~Fn(); }};
    return ops;
  }

  /// Fallback holder for closures above kInlineCapacity.
  template <class Fn>
  struct Boxed {
    std::unique_ptr<Fn> fn;
    void operator()() { (*fn)(); }
  };

  struct Slot {
    alignas(alignof(std::max_align_t)) std::byte storage[kInlineCapacity];
    const Ops* ops = nullptr;
    std::uint32_t next_free = kNullSlot;
  };
  static_assert(sizeof(Slot) == kInlineCapacity + 16);

  struct SlotChunk {
    Slot slots[kSlotChunk];
  };

  [[nodiscard]] Slot& slot(std::uint32_t index) {
    return slab_[index / kSlotChunk]->slots[index % kSlotChunk];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const {
    return slab_[index / kSlotChunk]->slots[index % kSlotChunk];
  }

  /// Heap entry: 16 trivially copyable bytes, four to a cacheline, so
  /// sifts are plain word moves. The key's seq lives in seqs_.
  struct Entry {
    RealTime when;
    std::uint32_t creator;
    std::uint32_t slot;
  };
  static_assert(sizeof(Entry) == 16);

  /// (when, creator, seq) order; seq is fetched only on a (when, creator)
  /// tie.
  [[nodiscard]] bool earlier(const Entry& a, const Entry& b) const {
    if (a.when != b.when) return a.when < b.when;
    if (a.creator != b.creator) return a.creator < b.creator;
    return seqs_[a.slot] < seqs_[b.slot];
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void push_entry(Entry entry);
  void pop_entry();
  void clear();

  std::vector<std::unique_ptr<SlotChunk>> slab_;
  std::uint32_t free_head_ = kNullSlot;
  std::vector<std::uint64_t> seqs_;  // by slot: a pending event's key seq
  std::vector<Entry> heap_;  // 4-ary min-heap over (when, creator, seq)
  RealTime now_{};
  std::uint64_t global_seq_ = 0;  // world-level creator's counter
  std::uint64_t dispatched_ = 0;
};

}  // namespace ssbft
