// Shared payload pool: the single owner of all in-flight message bytes.
//
// A WireMessage's variable-size body travels as a `Payload` — a small value
// handle. Payloads at or below one cacheline (kInlineCapacity) are stored
// inline in the handle itself; anything larger lives in a refcounted slot of
// the process-wide PayloadPool, and copying the handle only bumps the slot's
// refcount. The pool is deliberately global (one per process, not per
// engine): a slot reference survives engine construction/destruction, so
// in-flight messages cross both duty-cycle migration directions
// (serial → sharded and back) with their refcounts intact — the snapshot's
// PendingDelivery copies hold the bytes alive, the dying engine's queue
// closures release theirs, and nothing is ever re-copied.
//
// Thread-safety: slot acquisition/free-listing is mutex-guarded and
// refcounts are atomic, because shard workers copy and destroy handles
// concurrently (mailbox pushes, barrier drains, delivery destruction). The
// chunk directory never moves, so the lock-free readers need no lock while
// another thread grows the pool. The bytes themselves are immutable once
// acquired — corrupting a payload (sim/network.hpp chaos) clones a fresh
// slot instead of mutating a shared one. Slot indices are an
// allocation-order artifact and are never observable; everything
// digest-visible (size, bytes, checksum) is content.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>

namespace ssbft {

class PayloadPool;

/// The process-wide pool (see file comment for why it is global).
[[nodiscard]] PayloadPool& payload_pool();

class PayloadPool {
 public:
  PayloadPool() = default;
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;
  ~PayloadPool();

  /// Copy `size` bytes into a pool slot (refs = 1) and return its index.
  /// The only place payload bytes are ever copied into the pool.
  [[nodiscard]] std::uint32_t acquire(const void* data, std::uint32_t size);
  /// Share an existing slot (handle copy). Lock-free.
  void add_ref(std::uint32_t index);
  /// Drop one reference; the last release recycles the slot.
  void release(std::uint32_t index);

  [[nodiscard]] const std::uint8_t* data(std::uint32_t index) const;
  [[nodiscard]] std::uint32_t size(std::uint32_t index) const;
  [[nodiscard]] std::uint64_t checksum(std::uint32_t index) const;

  /// Live (referenced) slots. Zero after a run whose engines, snapshots,
  /// and probes have all let go — the leak pin tests assert exactly this.
  [[nodiscard]] std::uint32_t live() const {
    return live_.load(std::memory_order_relaxed);
  }
  /// Total bytes ever memcpy'd into pool slots. A shared slot is filled
  /// once however many deliveries reference it, so this counter is how the
  /// zero-copy pin measures "unicast send no longer copies per delivery".
  [[nodiscard]] std::uint64_t bytes_copied() const {
    return bytes_copied_.load(std::memory_order_relaxed);
  }
  /// High-water mark of bytes resident in live slots — how much payload
  /// memory the run actually needed at once (stats_registry leaf
  /// net.pool_peak_bytes). Monotone over the process, like the pool.
  [[nodiscard]] std::uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

 private:
  // Chunked, address-stable slabs recycled through a free list (the same
  // layout as the event queue's closure slab): growth never relocates a
  // live slot, and a warm pool performs no allocation. Slot byte buffers
  // are kept across reuse when large enough. The directory of chunk
  // pointers has a fixed capacity for the same reason: growing it in place
  // (a std::vector) would move it under a lock-free reader.
  struct Slot {
    std::atomic<std::uint32_t> refs{0};
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
    std::uint32_t next_free = kNullSlot;
    std::uint64_t checksum = 0;  // FNV-1a over the bytes, cached at fill
    std::unique_ptr<std::uint8_t[]> bytes;
  };
  static constexpr std::uint32_t kNullSlot = ~std::uint32_t{0};
  static constexpr std::uint32_t kSlotChunk = 64;
  /// Directory capacity: 2^16 chunks = 4M live slots, each > 64 bytes, so
  /// at least 272 MB of in-flight bodies. Untouched entries cost no
  /// resident memory (the pool is a constant-initialized static whose
  /// pages are mapped on first touch).
  static constexpr std::uint32_t kMaxChunks = 1u << 16;
  struct Chunk {
    Slot slots[kSlotChunk];
  };

  [[nodiscard]] Slot& slot(std::uint32_t index) const {
    // Acquire pairs with the release store that published the chunk; the
    // caller's index was handed out after that store.
    return chunks_[index / kSlotChunk].load(std::memory_order_acquire)
        ->slots[index % kSlotChunk];
  }

  mutable std::mutex mutex_;  // guards chunk growth and the free list
  std::atomic<Chunk*> chunks_[kMaxChunks] = {};
  std::uint32_t chunk_count_ = 0;  // published chunks; guarded by mutex_
  std::uint32_t free_head_ = kNullSlot;
  std::atomic<std::uint32_t> live_{0};
  std::atomic<std::uint64_t> bytes_copied_{0};
  std::atomic<std::uint64_t> resident_bytes_{0};  // sum of live slot sizes
  std::atomic<std::uint64_t> peak_bytes_{0};      // max resident ever seen
};

/// FNV-1a over a byte range (the payload checksum; also reused by the
/// authenticator and the app-log commit records).
[[nodiscard]] std::uint64_t payload_fnv(const void* data, std::size_t size);

/// Value handle for a message body. Copy = header copy plus a refcount bump
/// for pooled bodies (never a byte copy); bodies ≤ kInlineCapacity ride
/// inline in the handle. Immutable content; compared by content.
class Payload {
 public:
  /// Bodies at or below this many bytes (one cacheline) skip the pool.
  static constexpr std::uint32_t kInlineCapacity = 64;

  Payload() = default;
  /// Copy `size` bytes in — the one place bytes enter the payload system.
  Payload(const void* data, std::uint32_t size);

  Payload(const Payload& other);
  Payload& operator=(const Payload& other);
  Payload(Payload&& other) noexcept;
  Payload& operator=(Payload&& other) noexcept;
  ~Payload() { reset(); }

  [[nodiscard]] const std::uint8_t* data() const {
    return pooled() ? payload_pool().data(slot_) : inline_;
  }
  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool pooled() const { return slot_ != kNoSlot; }
  /// Cached FNV-1a over the bytes (0 for an empty payload).
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

  /// Content equality (size + bytes); never compares slot identity.
  friend bool operator==(const Payload& a, const Payload& b) {
    if (a.size_ != b.size_) return false;
    if (a.size_ == 0) return true;
    if (a.checksum_ != b.checksum_) return false;
    return std::memcmp(a.data(), b.data(), a.size_) == 0;
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  void reset();

  std::uint32_t size_ = 0;
  std::uint32_t slot_ = kNoSlot;   // kNoSlot ⇒ inline storage
  std::uint64_t checksum_ = 0;
  std::uint8_t inline_[kInlineCapacity];
};

/// Deterministic patterned payload of `size` bytes derived from `tag` —
/// the workload/test generator (no global RNG, so any engine or thread
/// minting the same (size, tag) gets identical bytes).
[[nodiscard]] Payload make_patterned_payload(std::uint32_t size,
                                             std::uint64_t tag);

}  // namespace ssbft
