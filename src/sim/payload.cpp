#include "sim/payload.hpp"

#include <vector>

#include "util/assert.hpp"

namespace ssbft {

PayloadPool& payload_pool() {
  static PayloadPool pool;
  return pool;
}

std::uint64_t payload_fnv(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

PayloadPool::~PayloadPool() {
  for (std::uint32_t c = 0; c < chunk_count_; ++c) {
    delete chunks_[c].load(std::memory_order_relaxed);
  }
}

std::uint32_t PayloadPool::acquire(const void* data, std::uint32_t size) {
  SSBFT_EXPECTS(size > 0);
  std::uint32_t index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_head_ != kNullSlot) {
      index = free_head_;
      free_head_ = slot(index).next_free;
    } else {
      SSBFT_EXPECTS(chunk_count_ < kMaxChunks);  // pool directory exhausted
      chunks_[chunk_count_].store(new Chunk(), std::memory_order_release);
      const std::uint32_t base = chunk_count_++ * kSlotChunk;
      // Thread slots [base+1, base+kSlotChunk) onto the free list; hand
      // out the first one.
      for (std::uint32_t i = kSlotChunk; i-- > 1;) {
        slot(base + i).next_free = free_head_;
        free_head_ = base + i;
      }
      index = base;
    }
    Slot& s = slot(index);
    SSBFT_ASSERT(s.refs.load(std::memory_order_relaxed) == 0);
    if (s.capacity < size) {
      s.bytes = std::make_unique<std::uint8_t[]>(size);
      s.capacity = size;
    }
    std::memcpy(s.bytes.get(), data, size);
    s.size = size;
    s.checksum = payload_fnv(data, size);
    s.refs.store(1, std::memory_order_release);
  }
  live_.fetch_add(1, std::memory_order_relaxed);
  bytes_copied_.fetch_add(size, std::memory_order_relaxed);
  const std::uint64_t resident =
      resident_bytes_.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (resident > peak &&
         !peak_bytes_.compare_exchange_weak(peak, resident,
                                            std::memory_order_relaxed)) {
  }
  return index;
}

void PayloadPool::add_ref(std::uint32_t index) {
  slot(index).refs.fetch_add(1, std::memory_order_relaxed);
}

void PayloadPool::release(std::uint32_t index) {
  Slot& s = slot(index);
  if (s.refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Read the size before free-listing: once the slot is on the list, a
  // concurrent acquire may refill it.
  const std::uint32_t size = s.size;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.next_free = free_head_;
    free_head_ = index;
  }
  live_.fetch_sub(1, std::memory_order_relaxed);
  resident_bytes_.fetch_sub(size, std::memory_order_relaxed);
}

const std::uint8_t* PayloadPool::data(std::uint32_t index) const {
  return slot(index).bytes.get();
}

std::uint32_t PayloadPool::size(std::uint32_t index) const {
  return slot(index).size;
}

std::uint64_t PayloadPool::checksum(std::uint32_t index) const {
  return slot(index).checksum;
}

Payload::Payload(const void* data, std::uint32_t size) : size_(size) {
  if (size_ == 0) return;
  if (size_ <= kInlineCapacity) {
    std::memcpy(inline_, data, size_);
    checksum_ = payload_fnv(data, size_);
    return;
  }
  slot_ = payload_pool().acquire(data, size_);
  checksum_ = payload_pool().checksum(slot_);
}

Payload::Payload(const Payload& other)
    : size_(other.size_), slot_(other.slot_), checksum_(other.checksum_) {
  if (pooled()) {
    payload_pool().add_ref(slot_);
  } else if (size_ > 0) {
    std::memcpy(inline_, other.inline_, size_);
  }
}

Payload& Payload::operator=(const Payload& other) {
  if (this == &other) return *this;
  // Ref the source before releasing ours: self-aliasing through distinct
  // handles to the same slot must not bounce the refcount through zero.
  if (other.pooled()) payload_pool().add_ref(other.slot_);
  reset();
  size_ = other.size_;
  slot_ = other.slot_;
  checksum_ = other.checksum_;
  if (!pooled() && size_ > 0) std::memcpy(inline_, other.inline_, size_);
  return *this;
}

Payload::Payload(Payload&& other) noexcept
    : size_(other.size_), slot_(other.slot_), checksum_(other.checksum_) {
  if (!pooled() && size_ > 0) std::memcpy(inline_, other.inline_, size_);
  other.slot_ = kNoSlot;
  other.size_ = 0;
  other.checksum_ = 0;
}

Payload& Payload::operator=(Payload&& other) noexcept {
  if (this == &other) return *this;
  reset();
  size_ = other.size_;
  slot_ = other.slot_;
  checksum_ = other.checksum_;
  if (!pooled() && size_ > 0) std::memcpy(inline_, other.inline_, size_);
  other.slot_ = kNoSlot;
  other.size_ = 0;
  other.checksum_ = 0;
  return *this;
}

void Payload::reset() {
  if (pooled()) payload_pool().release(slot_);
  slot_ = kNoSlot;
  size_ = 0;
  checksum_ = 0;
}

Payload make_patterned_payload(std::uint32_t size, std::uint64_t tag) {
  if (size == 0) return Payload{};
  std::vector<std::uint8_t> bytes(size);
  // splitmix64 stream seeded by the tag: cheap, stateless, identical on
  // every engine/thread for the same (size, tag).
  std::uint64_t x = tag + 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = 0; i < size; ++i) {
    if (i % 8 == 0) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      tag = z ^ (z >> 31);
    }
    bytes[i] = std::uint8_t(tag >> ((i % 8) * 8));
  }
  return Payload{bytes.data(), size};
}

}  // namespace ssbft
