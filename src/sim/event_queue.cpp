#include "sim/event_queue.hpp"

#include <algorithm>

namespace ssbft {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNullSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slot(index).next_free;
    return index;
  }
  // New chunk: hand out its first slot, thread the rest onto the free list.
  slab_.push_back(std::make_unique<SlotChunk>());
  seqs_.resize(slab_.size() * kSlotChunk);
  const std::uint32_t base = std::uint32_t(slab_.size() - 1) * kSlotChunk;
  for (std::uint32_t i = kSlotChunk; i-- > 1;) {
    slot(base + i).next_free = free_head_;
    free_head_ = base + i;
  }
  return base;
}

void EventQueue::release_slot(std::uint32_t index) {
  slot(index).next_free = free_head_;
  free_head_ = index;
}

// 4-ary layout: the children of i are 4i+1 .. 4i+4, its parent (i-1)/4.
// Half the depth of a binary heap; a pop compares four adjacent 16-byte
// children per level.
void EventQueue::push_entry(Entry entry) {
  // Hole insertion: shift later parents down, write the new entry once.
  heap_.push_back(entry);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void EventQueue::pop_entry() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t count = heap_.size();
  if (count == 0) return;
  // Sift the old last entry down from the root's hole.
  std::size_t hole = 0;
  while (true) {
    const std::size_t first = 4 * hole + 1;
    if (first >= count) break;
    const std::size_t end = std::min(first + 4, count);
    std::size_t least = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (earlier(heap_[child], heap_[least])) least = child;
    }
    if (!earlier(heap_[least], last)) break;
    heap_[hole] = heap_[least];
    hole = least;
  }
  heap_[hole] = last;
}

void EventQueue::run_one() {
  SSBFT_EXPECTS(!heap_.empty());
  const Entry top = heap_.front();
  pop_entry();
  now_ = top.when;
  ++dispatched_;
  // In place: Ops::run calls the callable in its slot, destroys it and
  // recycles the slot — one indirect call for the whole dispatch.
  slot(top.slot).ops->run(*this, top.slot);
}

void EventQueue::run_until(RealTime deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) run_one();
  if (now_ < deadline) now_ = deadline;
}

void EventQueue::clear() {
  for (const Entry& entry : heap_) {
    Slot& pending = slot(entry.slot);
    pending.ops->destroy(pending.storage);
  }
  heap_.clear();
}

}  // namespace ssbft
