// Differential tests for the flat protocol-state containers (core/node_set,
// core/flat_map, core/message_log's SenderTable and ArrivalLog) against the
// std:: ordered containers they replaced. The refactor's contract is
// behavioral identity: same membership answers, same cardinalities, and —
// where protocol code walks the structure — the SAME ascending iteration
// order std::set/std::map produced (visit order decides send order, which
// decides run digests). ArrivalLog's decay may skip its sweep when its stamp
// bounds say nothing is due; the randomized run below holds every query to
// a naive model that sweeps on every decay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "core/flat_map.hpp"
#include "core/node_set.hpp"
#include "core/message_log.hpp"
#include "util/rng.hpp"

namespace ssbft {
namespace {

std::vector<NodeId> members(const NodeSet& set) {
  std::vector<NodeId> out;
  set.for_each([&](NodeId id) { out.push_back(id); });
  return out;
}

// --- NodeSet vs std::set<NodeId> -------------------------------------------

TEST(NodeSet, MatchesStdSetThroughRandomInserts) {
  Rng rng(0x5eed);
  NodeSet flat;
  std::set<NodeId> ref;
  for (int op = 0; op < 4000; ++op) {
    const NodeId id = NodeId(std::uint64_t(rng.next_in(0, 511)));
    const bool inserted_flat = flat.insert(id);
    const bool inserted_ref = ref.insert(id).second;
    ASSERT_EQ(inserted_flat, inserted_ref) << "id " << id << " op " << op;
    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_EQ(flat.popcount_words(), ref.size());
    const NodeId probe = NodeId(std::uint64_t(rng.next_in(0, 511)));
    ASSERT_EQ(flat.count(probe), ref.count(probe) != 0 ? 1u : 0u);
  }
  EXPECT_EQ(members(flat), std::vector<NodeId>(ref.begin(), ref.end()));
}

TEST(NodeSet, AscendingOrderAcrossThePromoteBoundary) {
  // Iteration order must be the std::set order on BOTH sides of the
  // inline-array → bitset promotion, and at the boundary itself.
  const std::vector<NodeId> ids = {90, 5, 63, 64, 7, 200, 1, 42, 150, 0};
  NodeSet flat;
  std::set<NodeId> ref;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    flat.insert(ids[i]);
    ref.insert(ids[i]);
    ASSERT_EQ(members(flat), std::vector<NodeId>(ref.begin(), ref.end()))
        << "after " << (i + 1) << " inserts";
  }
}

TEST(NodeSet, ExactlyInlineCapacityStaysUnpromoted) {
  NodeSet set;
  for (NodeId id = 0; id < NodeSet::kInlineCapacity; ++id) {
    EXPECT_TRUE(set.insert(id * 3));
    EXPECT_FALSE(set.insert(id * 3));  // duplicate rejected at every size
  }
  EXPECT_EQ(set.size(), NodeSet::kInlineCapacity);
  // One more distinct id forces the promotion; nothing may be lost.
  EXPECT_TRUE(set.insert(1000));
  EXPECT_EQ(set.size(), NodeSet::kInlineCapacity + 1);
  EXPECT_EQ(set.popcount_words(), NodeSet::kInlineCapacity + 1);
  for (NodeId id = 0; id < NodeSet::kInlineCapacity; ++id) {
    EXPECT_TRUE(set.contains(id * 3));
  }
  EXPECT_TRUE(set.contains(1000));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(members(set), std::vector<NodeId>{});
}

TEST(NodeSet, InlineBitsAndHeapWordsAtEveryBoundary) {
  // Ids 63/64 straddle a word, 255/256 the inline-bits limit: a set that
  // promotes with only ids < 256 keeps its bits inline, and the first id
  // ≥ 256 moves them to heap words — at every step the answers and the
  // ascending order must match std::set.
  const std::vector<NodeId> ids = {255, 63, 64, 0, 1, 2, 3, 4,  // list
                                   128,                         // → bits
                                   254, 65,                     // bits
                                   256,                         // → heap
                                   257, 511, 62, 256};
  NodeSet flat;
  std::set<NodeId> ref;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(flat.insert(ids[i]), ref.insert(ids[i]).second) << "step " << i;
    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_EQ(flat.popcount_words(), ref.size());
    ASSERT_EQ(members(flat), std::vector<NodeId>(ref.begin(), ref.end()))
        << "step " << i;
    for (const NodeId probe : {0u, 62u, 63u, 64u, 65u, 127u, 128u, 254u, 255u,
                               256u, 257u, 511u, 512u, 4095u}) {
      ASSERT_EQ(flat.count(probe), ref.count(probe)) << "probe " << probe;
    }
  }
  // Copies are independent, in every representation.
  NodeSet copy = flat;
  EXPECT_EQ(members(copy), members(flat));
  copy.insert(1000);
  EXPECT_FALSE(flat.contains(1000));
  EXPECT_EQ(copy.size(), flat.size() + 1);

  NodeSet bits;  // promoted with every id < 256: inline bits
  for (NodeId id = 247; id < 256; ++id) bits.insert(id);
  NodeSet bits_copy = bits;
  bits_copy.insert(63);
  EXPECT_EQ(bits.size(), 9u);
  EXPECT_FALSE(bits.contains(63));
  EXPECT_EQ(bits_copy.popcount_words(), 10u);
  EXPECT_EQ(members(bits).front(), 247u);
  EXPECT_EQ(members(bits).back(), 255u);

  // clear() returns every representation to an empty, reusable list.
  for (NodeSet* set : {&flat, &copy, &bits, &bits_copy}) {
    set->clear();
    EXPECT_TRUE(set->empty());
    EXPECT_EQ(set->popcount_words(), 0u);
    EXPECT_EQ(members(*set), std::vector<NodeId>{});
    EXPECT_FALSE(set->contains(255));
    EXPECT_TRUE(set->insert(300));
    EXPECT_EQ(members(*set), std::vector<NodeId>{300});
  }
}

// --- FlatMap vs std::map ----------------------------------------------------

TEST(FlatMap, MatchesStdMapThroughRandomOps) {
  Rng rng(0xf1a7);
  FlatMap<std::uint32_t, std::uint64_t> flat;
  std::map<std::uint32_t, std::uint64_t> ref;
  for (int op = 0; op < 6000; ++op) {
    const std::uint32_t key = std::uint32_t(std::uint64_t(rng.next_in(0, 127)));
    switch (std::uint64_t(rng.next_in(0, 3))) {
      case 0: {  // operator[] insert-or-update
        const std::uint64_t v = std::uint64_t(rng.next_in(0, 1 << 20));
        flat[key] += v;
        ref[key] += v;
        break;
      }
      case 1: {  // try_emplace: must NOT clobber an existing value
        const auto [fit, finserted] = flat.try_emplace(key, op);
        const auto [rit, rinserted] = ref.try_emplace(key, op);
        ASSERT_EQ(finserted, rinserted);
        ASSERT_EQ(fit->second, rit->second);
        break;
      }
      case 2: {  // erase by key
        ASSERT_EQ(flat.erase(key), ref.erase(key));
        break;
      }
      default: {  // find
        const auto fit = flat.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(fit != flat.end(), rit != ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(fit->second, rit->second);
        }
        ASSERT_EQ(flat.contains(key), ref.count(key) != 0);
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Full-sweep parity: same pairs, same ascending order.
  ASSERT_TRUE(std::equal(flat.begin(), flat.end(), ref.begin(), ref.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
}

TEST(FlatMap, EraseWhileIteratingMatchesStdMap) {
  // The decay/cleanup idiom: walk the table erasing stale entries via the
  // iterator-returning erase, keeping the rest.
  FlatMap<std::uint32_t, std::uint32_t> flat;
  std::map<std::uint32_t, std::uint32_t> ref;
  for (std::uint32_t k = 0; k < 40; ++k) {
    flat[k] = k * 7;
    ref[k] = k * 7;
  }
  for (auto it = flat.begin(); it != flat.end();) {
    if (it->first % 3 == 0) {
      it = flat.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = ref.begin(); it != ref.end();) {
    if (it->first % 3 == 0) {
      it = ref.erase(it);
    } else {
      ++it;
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
  EXPECT_TRUE(std::equal(flat.begin(), flat.end(), ref.begin(), ref.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
}

// --- SenderTable vs map<NodeId, LocalTime> ---------------------------------

std::map<NodeId, LocalTime> snapshot(const SenderTable& table) {
  std::map<NodeId, LocalTime> out;
  table.for_each([&](NodeId sender, LocalTime at) {
    // Open addressing must never yield a sender twice.
    EXPECT_TRUE(out.emplace(sender, at).second) << "duplicate " << sender;
  });
  return out;
}

TEST(SenderTable, KeepsLatestArrivalPerSender) {
  Rng rng(0xab1e);
  SenderTable table;
  std::map<NodeId, LocalTime> ref;
  for (int op = 0; op < 3000; ++op) {
    const NodeId sender = NodeId(std::uint64_t(rng.next_in(0, 200)));
    const LocalTime at =
        LocalTime{} + microseconds(std::int64_t(std::uint64_t(rng.next_in(0, 100000))));
    table.note(sender, at);
    auto [it, inserted] = ref.emplace(sender, at);
    if (!inserted && it->second < at) it->second = at;
    ASSERT_EQ(table.size(), ref.size());
  }
  EXPECT_EQ(snapshot(table), ref);
}

TEST(SenderTable, DecayMatchesReferenceFilter) {
  Rng rng(0xdeca);
  SenderTable table;
  std::map<NodeId, LocalTime> ref;
  const LocalTime base{};
  for (NodeId sender = 0; sender < 64; ++sender) {
    const LocalTime at =
        base + microseconds(std::int64_t(std::uint64_t(rng.next_in(0, 1000))));
    table.note(sender, at);
    ref[sender] = at;
  }
  const LocalTime now = base + microseconds(600);
  const Duration keep = microseconds(250);
  table.decay(now, keep);
  std::erase_if(ref, [&](const auto& e) {
    return e.second > now || e.second < now - keep;
  });
  EXPECT_EQ(snapshot(table), ref);
  // Survivors must stay notable after the in-place rebuild.
  table.note(999, now);
  ref[999] = now;
  EXPECT_EQ(snapshot(table), ref);
}

TEST(SenderTable, DecayPurgesFutureStamps) {
  // Post-transient state: scramble() can plant future arrivals; decay must
  // treat them as stale even though they are "recent".
  SenderTable table;
  const LocalTime now = LocalTime{} + microseconds(100);
  table.note(1, now);
  table.note(2, now + microseconds(500));  // the future
  table.decay(now, microseconds(50));
  const std::map<NodeId, LocalTime> got = snapshot(table);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got.contains(1));
}

// --- ArrivalLog vs a model that sweeps on every decay ----------------------

using ModelKey = std::tuple<MsgKind, Value, NodeId, std::uint32_t>;
using Model = std::map<ModelKey, std::map<NodeId, LocalTime>>;

ArrivalKey arrival_key(const ModelKey& k) {
  return ArrivalKey{std::get<0>(k), std::get<1>(k), std::get<2>(k),
                    std::get<3>(k)};
}

// Every key the run below (and ArrivalLog::scramble with n_nodes = 6) can
// produce.
std::vector<ModelKey> key_universe() {
  std::vector<ModelKey> keys;
  for (const MsgKind kind : {MsgKind::kSupport, MsgKind::kApprove,
                             MsgKind::kReady}) {
    for (Value v = 0; v < 4; ++v) keys.emplace_back(kind, v, kNoNode, 0);
  }
  for (const MsgKind kind : {MsgKind::kBcastEcho, MsgKind::kBcastEchoPrime}) {
    for (Value v = 0; v < 4; ++v) {
      for (NodeId p = 0; p < 6; ++p) {
        for (std::uint32_t r = 1; r <= 8; ++r) keys.emplace_back(kind, v, p, r);
      }
    }
  }
  return keys;
}

std::optional<Duration> model_shortest_window(
    const std::map<NodeId, LocalTime>& senders, std::uint32_t quorum,
    LocalTime now, Duration max_window) {
  if (quorum == 0) return Duration::zero();
  std::vector<LocalTime> in;
  for (const auto& [sender, at] : senders) {
    if (at <= now && at >= now - max_window) in.push_back(at);
  }
  if (in.size() < quorum) return std::nullopt;
  std::sort(in.begin(), in.end(), std::greater<>());
  return now - in[quorum - 1];
}

void expect_log_matches(const ArrivalLog& log, const Model& model,
                        const std::vector<ModelKey>& universe, LocalTime now,
                        Rng& rng, int op) {
  std::size_t total = 0;
  for (const auto& [key, senders] : model) total += senders.size();
  ASSERT_EQ(log.total_arrivals(), total) << "op " << op;
  for (const ModelKey& k : universe) {
    const auto it = model.find(k);
    const std::map<NodeId, LocalTime> none;
    const auto& senders = it == model.end() ? none : it->second;
    const ArrivalKey key = arrival_key(k);
    ASSERT_EQ(log.distinct_total(key), senders.size()) << "op " << op;
    ASSERT_EQ(log.find(key) != nullptr, !senders.empty()) << "op " << op;
    if (senders.empty()) continue;
    const LocalTime from = now - microseconds(rng.next_in(0, 400));
    const LocalTime to = now + microseconds(rng.next_in(-50, 50));
    std::uint32_t in_window = 0;
    for (const auto& [sender, at] : senders) {
      if (at >= from && at <= to) ++in_window;
    }
    ASSERT_EQ(log.distinct_in_window(key, from, to), in_window) << "op " << op;
    const auto quorum = std::uint32_t(rng.next_below(senders.size() + 2));
    const Duration max_window = microseconds(rng.next_in(0, 400));
    ASSERT_EQ(log.shortest_window(key, quorum, now, max_window),
              model_shortest_window(senders, quorum, now, max_window))
        << "op " << op;
  }
  for (const MsgKind kind : {MsgKind::kSupport, MsgKind::kApprove,
                             MsgKind::kReady, MsgKind::kBcastEcho,
                             MsgKind::kBcastEchoPrime}) {
    // append_values adds only values absent from the buffer, each once.
    std::vector<Value> got = {7};
    log.append_values(kind, got);
    ASSERT_EQ(got.front(), 7u);
    got.erase(got.begin());
    std::set<Value> want;
    for (const auto& [key, senders] : model) {
      if (std::get<0>(key) == kind && !senders.empty()) {
        want.insert(std::get<1>(key));
      }
    }
    ASSERT_EQ(std::set<Value>(got.begin(), got.end()), want) << "op " << op;
    ASSERT_EQ(got.size(), want.size()) << "duplicate value, op " << op;
  }
}

TEST(ArrivalLogModel, SkippedDecaysMatchAFullSweepThroughRandomOps) {
  Rng rng(0xa771);
  const std::vector<ModelKey> universe = key_universe();
  const Duration keep = microseconds(300);
  ArrivalLog log;
  Model model;
  LocalTime now = LocalTime{} + milliseconds(5);
  for (int op = 0; op < 4000; ++op) {
    now += microseconds(rng.next_in(0, 40));
    switch (rng.next_below(20)) {
      case 0: {  // N4-style erase of one value
        const Value v = rng.next_below(4);
        log.erase_if([v](const ArrivalKey& k) { return k.value == v; });
        std::erase_if(model, [v](const auto& e) {
          return std::get<1>(e.first) == v;
        });
        break;
      }
      case 1: {  // transient fault: arbitrary (past and future) stamps
        log.scramble(rng, now, keep, 6, 24);
        // Adopt what scramble planted (it only adds): merge the log's
        // tables into the model, which keeps everything it already held.
        for (const ModelKey& k : universe) {
          if (const SenderTable* t = log.find(arrival_key(k))) {
            t->for_each([&](NodeId s, LocalTime at) { model[k][s] = at; });
          }
        }
        break;
      }
      case 2:
        if (rng.next_below(4) == 0) {
          log.clear();
          model.clear();
        }
        break;
      case 3: {  // the clock jumps back: everything recent is now future
        now = now - microseconds(rng.next_in(0, 200));
        break;
      }
      default: {
        if (rng.next_below(3) == 0) {
          log.decay(now, keep);
          for (auto it = model.begin(); it != model.end();) {
            std::erase_if(it->second, [&](const auto& e) {
              return e.second > now || e.second < now - keep;
            });
            it = it->second.empty() ? model.erase(it) : std::next(it);
          }
          break;
        }
        const ModelKey& k = universe[rng.next_below(universe.size())];
        const auto sender = NodeId(rng.next_below(6));
        // Mostly receipt-time stamps; a few late or early ones.
        const LocalTime at =
            rng.next_below(8) == 0 ? now + microseconds(rng.next_in(-100, 100))
                                   : now;
        log.note(arrival_key(k), sender, at);
        auto [it, inserted] = model[k].emplace(sender, at);
        if (!inserted && it->second < at) it->second = at;
        break;
      }
    }
    expect_log_matches(log, model, universe, now, rng, op);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ssbft
