// Flat membership set over dense NodeIds — the quorum/vote-tracking
// replacement for the per-instance std::set<NodeId> in the hot protocol
// structs (msgd-broadcast echo/init tracking, ss-Byz-Agree accept records).
//
// Three representations, all inside one 64-byte object until the last:
//   list   up to kInlineCapacity ids, sorted ascending, packed two per
//          64-bit inline word — small sets (the common case per broadcast
//          instance at small n, and adversarial instances that never
//          gather a quorum) allocate nothing;
//   bits   past kInlineCapacity distinct ids, while every id is below
//          kInlineBitIds, the same four inline words hold a membership
//          bitmap — still no allocation;
//   heap   an id ≥ kInlineBitIds moves the bitmap to a heap word array
//          sized to the highest id seen (rounded to 64) that grows on
//          demand.
// In both bitmap forms membership is a single bit test, and thresholds come
// from a cached cardinality that a popcount sweep (`popcount_words()`) can
// audit at any time. The inline words are only ever read and written as
// integers (shift and mask), never reinterpreted.
//
// Iteration (`for_each`) is always in ascending id order — identical to
// the std::set iteration order it replaces, so consumers that walk the
// members (e.g. the chain-length matching in ss_byz_agree) see the exact
// sequence the ordered-container implementation produced.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace ssbft {

class NodeSet {
 public:
  /// Distinct ids held in the sorted inline list before promoting.
  static constexpr std::uint32_t kInlineCapacity = 8;
  /// Promoted sets whose ids are all below this keep their bits inline.
  static constexpr NodeId kInlineBitIds = 256;

  /// Inserts `id`; returns true when it was not already present.
  bool insert(NodeId id) {
    if (mode_ == Mode::kList) {
      std::uint32_t pos = 0;
      while (pos < count_ && list_at(pos) < id) ++pos;
      if (pos < count_ && list_at(pos) == id) return false;
      if (count_ < kInlineCapacity) {
        for (std::uint32_t i = count_; i > pos; --i) {
          list_set(i, list_at(i - 1));
        }
        list_set(pos, id);
        ++count_;
        return true;
      }
      promote(id);
    } else if (mode_ == Mode::kBits && id >= kInlineBitIds) {
      spill(id);
    }
    std::uint64_t& word = word_for(id);
    const std::uint64_t mask = std::uint64_t{1} << (id & 63u);
    if (word & mask) return false;
    word |= mask;
    ++count_;
    return true;
  }

  /// std::set-compatible membership probe: 1 when present, else 0.
  [[nodiscard]] std::uint32_t count(NodeId id) const {
    if (mode_ == Mode::kList) {
      for (std::uint32_t i = 0; i < count_; ++i) {
        if (list_at(i) == id) return 1;
      }
      return 0;
    }
    const std::uint32_t w = id >> 6;
    if (w >= word_count()) return 0;
    return (words()[w] >> (id & 63u)) & 1u;
  }

  [[nodiscard]] bool contains(NodeId id) const { return count(id) != 0; }

  /// Cardinality — O(1); `popcount_words()` recomputes it from the bits.
  [[nodiscard]] std::uint32_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// The popcount form of size(), for threshold checks that want to read
  /// straight off the bit words (and for auditing the cached count).
  [[nodiscard]] std::uint32_t popcount_words() const {
    if (mode_ == Mode::kList) return count_;
    std::uint32_t total = 0;
    for (std::uint32_t w = 0; w < word_count(); ++w) {
      total += std::uint32_t(std::popcount(words()[w]));
    }
    return total;
  }

  void clear() {
    heap_.clear();
    heap_.shrink_to_fit();
    for (std::uint64_t& w : inline_) w = 0;
    count_ = 0;
    mode_ = Mode::kList;
  }

  /// Visits members in ascending id order (the std::set iteration order).
  template <class F>
  void for_each(F&& f) const {
    if (mode_ == Mode::kList) {
      for (std::uint32_t i = 0; i < count_; ++i) f(list_at(i));
      return;
    }
    const std::uint64_t* const bits_of = words();
    for (std::uint32_t w = 0; w < word_count(); ++w) {
      std::uint64_t bits = bits_of[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        f(NodeId((w << 6) + std::uint32_t(b)));
        bits &= bits - 1;
      }
    }
  }

 private:
  enum class Mode : std::uint8_t { kList, kBits, kHeap };
  static constexpr std::uint32_t kInlineWords = kInlineBitIds / 64;
  static_assert(kInlineWords * 2 == kInlineCapacity,
                "the sorted list packs two 32-bit ids per inline word");

  [[nodiscard]] NodeId list_at(std::uint32_t i) const {
    return NodeId(inline_[i >> 1] >> ((i & 1u) * 32));
  }
  void list_set(std::uint32_t i, NodeId id) {
    const std::uint32_t shift = (i & 1u) * 32;
    std::uint64_t& word = inline_[i >> 1];
    word = (word & ~(std::uint64_t{0xFFFFFFFF} << shift)) |
           (std::uint64_t{id} << shift);
  }

  [[nodiscard]] const std::uint64_t* words() const {
    return mode_ == Mode::kHeap ? heap_.data() : inline_;
  }
  [[nodiscard]] std::uint32_t word_count() const {
    return mode_ == Mode::kHeap ? std::uint32_t(heap_.size()) : kInlineWords;
  }

  std::uint64_t& word_for(NodeId id) {
    const std::uint32_t w = id >> 6;
    if (mode_ == Mode::kBits) return inline_[w];  // id < kInlineBitIds
    if (w >= heap_.size()) heap_.resize(w + 1, 0);
    return heap_[w];
  }

  /// list → bitmap: inline bits when `incoming` and every listed id fit,
  /// else heap words sized to the largest of them.
  void promote(NodeId incoming) {
    NodeId ids[kInlineCapacity] = {};
    NodeId max_id = incoming;
    for (std::uint32_t i = 0; i < count_; ++i) {
      ids[i] = list_at(i);
      if (ids[i] > max_id) max_id = ids[i];
    }
    for (std::uint64_t& w : inline_) w = 0;
    if (max_id < kInlineBitIds) {
      mode_ = Mode::kBits;
    } else {
      mode_ = Mode::kHeap;
      heap_.resize((max_id >> 6) + 1, 0);
    }
    for (std::uint32_t i = 0; i < count_; ++i) {
      word_for(ids[i]) |= std::uint64_t{1} << (ids[i] & 63u);
    }
  }

  /// inline bits → heap words, to make room for `incoming` ≥ kInlineBitIds.
  void spill(NodeId incoming) {
    heap_.assign((incoming >> 6) + 1, 0);
    for (std::uint32_t w = 0; w < kInlineWords; ++w) {
      heap_[w] = inline_[w];
      inline_[w] = 0;
    }
    mode_ = Mode::kHeap;
  }

  std::uint64_t inline_[kInlineWords] = {};  // sorted id list, or bits
  std::vector<std::uint64_t> heap_;          // bits once an id ≥ 256 joins
  std::uint32_t count_ = 0;
  Mode mode_ = Mode::kList;
};

static_assert(sizeof(NodeSet) <= 64, "NodeSet keeps its 64-byte footprint");

}  // namespace ssbft
