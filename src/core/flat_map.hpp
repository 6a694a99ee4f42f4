// Sorted flat map — the cache-friendly replacement for the small
// std::map tables in the hot protocol structs (initiator_accept's
// per-value timestamp tables, msgd_broadcast's per-(p,m,k) instance
// index, ss_byz_agree's per-value accept records, the node's per-General
// instance table).
//
// Entries live contiguously in one sorted vector ("arena-backed"): a
// lookup is a binary search over a dense array instead of a pointer
// chase, iteration is a linear sweep in ascending key order — exactly
// the std::map iteration order it replaces, which is what keeps the
// refactor digest-identical (several call sites send messages while
// walking these tables, so visit order is behavior). Inserts shift the
// tail; these tables hold a handful of live values/instances, and each
// key is inserted once while being probed per message, so the read-side
// win dominates.
//
// Only the std::map surface the protocol code uses is provided:
// operator[], find, try_emplace, erase (by key and by iterator,
// returning the next iterator — the erase-while-iterating cleanup
// idiom), begin/end, size/empty/clear.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace ssbft {

template <class K, class V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  [[nodiscard]] iterator find(const K& key) {
    const iterator it = lower(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  [[nodiscard]] const_iterator find(const K& key) const {
    const const_iterator it = lower(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }

  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != entries_.end();
  }

  V& operator[](const K& key) {
    const iterator it = lower(key);
    if (it != entries_.end() && it->first == key) return it->second;
    return entries_.emplace(it, key, V{})->second;
  }

  template <class... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    iterator it = lower(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    it = entries_.emplace(it, std::piecewise_construct,
                          std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  iterator erase(const_iterator it) { return entries_.erase(it); }

  std::size_t erase(const K& key) {
    const iterator it = find(key);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }

 private:
  [[nodiscard]] iterator lower(const K& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  [[nodiscard]] const_iterator lower(const K& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;
};

}  // namespace ssbft
