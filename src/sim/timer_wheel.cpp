#include "sim/timer_wheel.hpp"

#include <algorithm>
#include <bit>

namespace ssbft {

void TimerWheel::release_record(std::uint32_t index) {
  Record& r = records_[index];
  ++r.generation;  // every outstanding handle to this arming goes stale
  r.list = kFree;
  r.prev = kNull;
  r.next = free_head_;
  free_head_ = index;
  --live_;
}

void TimerWheel::unlink(std::uint32_t index) {
  Record& r = records_[index];
  const std::uint32_t list = r.list;
  SSBFT_ASSERT(list < kListCount);
  if (r.prev != kNull) {
    records_[r.prev].next = r.next;
  } else {
    heads_[list] = r.next;
  }
  if (r.next != kNull) records_[r.next].prev = r.prev;
  r.prev = r.next = kNull;
  r.list = kFree;
  --armed_;
  if (list < kSlotLists) {
    if (heads_[list] == kNull) {
      occupied_[list / kSlots] &= ~(1ull << (list % kSlots));
    }
  } else if (list == kOverflowList) {
    --overflow_count_;
  } else if (heads_[kReadyList] == kNull) {
    ready_min_ = RealTime::max();
  }
}

TimerHandle TimerWheel::arm_external(RealTime when, EventKey key, NodeId node,
                                     std::uint64_t cookie) {
  const std::uint32_t index = alloc_record();
  Record& r = records_[index];
  r.when = when;
  r.seq = key.seq;
  r.creator = key.creator;
  r.node = node;
  r.cookie = cookie;
  r.list = kInHeap;  // the caller schedules the fire event itself
  return TimerHandle{index, r.generation};
}

bool TimerWheel::cancel(TimerHandle handle) {
  if (handle.index >= records_.size()) return false;
  Record& r = records_[handle.index];
  if (r.generation != handle.generation || r.list == kFree) return false;
  if (r.list != kInHeap) unlink(handle.index);
  release_record(handle.index);
  return true;
}

bool TimerWheel::claim(TimerHandle handle, NodeId& node,
                       std::uint64_t& cookie) {
  if (handle.index >= records_.size()) return false;
  Record& r = records_[handle.index];
  if (r.generation != handle.generation || r.list != kInHeap) return false;
  node = r.node;
  cookie = r.cookie;
  release_record(handle.index);
  return true;
}

void TimerWheel::earliest_slot(std::uint64_t& slot_tick,
                               std::uint32_t& list) const {
  slot_tick = ~std::uint64_t{0};
  list = kNull;
  for (std::uint32_t level = 0; level < kLevels; ++level) {
    const std::uint64_t occ = occupied_[level];
    if (occ == 0) continue;
    const std::uint32_t shift = kSlotBits * level;
    const std::uint64_t level_tick = tick_ >> shift;
    const std::uint32_t cur = std::uint32_t(level_tick) & (kSlots - 1);
    const std::uint64_t ahead = occ >> cur;
    SSBFT_ASSERT(ahead != 0);  // XOR placement: slots are strictly ahead
    const std::uint32_t offset = std::uint32_t(std::countr_zero(ahead));
    const std::uint64_t start = (level_tick + offset) << shift;
    if (start < slot_tick) {
      slot_tick = start;
      list = level * kSlots + cur + offset;
    }
  }
}

RealTime TimerWheel::compute_next_due() const {
  RealTime best = RealTime::max();
  if (heads_[kReadyList] != kNull) best = ready_min_;
  std::uint64_t slot_tick;
  std::uint32_t list;
  earliest_slot(slot_tick, list);
  if (list != kNull) {
    best = std::min(best, RealTime{std::int64_t(slot_tick << kTickShift)});
  }
  if (overflow_count_ > 0) {
    best = std::min(best,
                    RealTime{std::int64_t(overflow_min_tick_ << kTickShift)});
  }
  return best;
}

void TimerWheel::flush_ready(std::vector<Due>& out) {
  std::uint32_t index = heads_[kReadyList];
  heads_[kReadyList] = kNull;
  ready_min_ = RealTime::max();
  while (index != kNull) {
    Record& r = records_[index];
    const std::uint32_t next = r.next;
    r.prev = r.next = kNull;
    r.list = kInHeap;
    --armed_;
    out.push_back(
        Due{r.when, EventKey{r.creator, r.seq}, TimerHandle{index, r.generation}});
    index = next;
  }
}

bool TimerWheel::rescan_overflow(std::vector<Due>& out) {
  // Lower-bound gate: if even the earliest parked record cannot be within
  // the wheel's horizon, nobody is. (A record whose span-crossing keeps it
  // parked just past the gate is re-walked on later advances until the
  // wheel enters its span — overflow is the cold path by construction.)
  if (overflow_count_ == 0 || overflow_min_tick_ >= tick_ + kHorizonTicks) {
    return false;
  }
  std::uint32_t index = heads_[kOverflowList];
  heads_[kOverflowList] = kNull;
  overflow_min_tick_ = ~std::uint64_t{0};
  armed_ -= overflow_count_;
  overflow_count_ = 0;
  while (index != kNull) {
    Record& r = records_[index];
    const std::uint32_t next = r.next;
    r.prev = r.next = kNull;
    r.list = kFree;  // transient; place() assigns the real list
    place(index, &out);
    index = next;
  }
  return true;
}

void TimerWheel::recall_handed_over() {
  for (std::uint32_t index = 0; index < records_.size(); ++index) {
    if (records_[index].list == kInHeap) place(index, nullptr);
  }
}

void TimerWheel::advance(RealTime t, std::vector<Due>& out) {
  out.clear();
  const std::uint64_t target = tick_of(t);
  if (heads_[kReadyList] != kNull) flush_ready(out);
  std::uint64_t slot_tick;
  std::uint32_t list;
  while (true) {
    earliest_slot(slot_tick, list);
    if (list == kNull || slot_tick > target) break;
    if (slot_tick > tick_) tick_ = slot_tick;
    // Lazy cascade: detach the whole slot, clear its occupancy bit, then
    // re-place every record relative to the new wheel time — due records
    // go straight into the batch, the rest drop to a strictly lower level.
    std::uint32_t index = heads_[list];
    heads_[list] = kNull;
    occupied_[list / kSlots] &= ~(1ull << (list % kSlots));
    while (index != kNull) {
      Record& r = records_[index];
      const std::uint32_t next = r.next;
      r.prev = r.next = kNull;
      r.list = kFree;  // transient; place() assigns the real list
      --armed_;
      place(index, &out);
      index = next;
    }
  }
  if (target > tick_) tick_ = target;
  if (rescan_overflow(out)) {
    next_due_valid_ = false;  // the final scan below is stale
  } else {
    // Refresh the cache from the exit scan: slots are final, the ready
    // list is empty (nothing schedules during an advance), and the
    // overflow bound survives unchanged.
    RealTime best = list == kNull
                        ? RealTime::max()
                        : RealTime{std::int64_t(slot_tick << kTickShift)};
    if (overflow_count_ > 0) {
      best = std::min(
          best, RealTime{std::int64_t(overflow_min_tick_ << kTickShift)});
    }
    next_due_cache_ = best;
    next_due_valid_ = true;
  }
}

}  // namespace ssbft
