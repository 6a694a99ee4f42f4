// Structured tracing: a low-overhead timeline recorder for the simulator.
//
// The tracer answers the question the aggregate metrics (run_digest,
// window_stabilization, WindowStats) cannot: *when* and *where* did
// time go inside a run. Three layers of records share one format:
//   protocol — agreement round spans (anchor → return) with quorum-progress
//              instants, pulse cycles, clock-sync snaps, log commit spans
//              (propose → first commit);
//   engine   — ShardWorld lookahead windows and steals; DutyWorld chaos
//              windows and both migration directions with export/adopt
//              sub-spans;
//   workload — injections, chaos drops/corruptions/delays/duplicates, and
//              forged deliveries on the reserved channel.
//
// Design constraints, in order:
//   1. The tracer OBSERVES, never participates: no RNG draws, no queue
//      interaction, no allocation on the hot path. Digests are bit-identical
//      with tracing on or off (test_trace pins the full matrix).
//   2. Emission is wait-free per thread: records go to per-thread ring
//      buffers (TraceBuffer) that overwrite their oldest records when full,
//      merged post-run by timestamp into one timeline.
//   3. Disabled tracing costs one thread-local load and a branch per site;
//      compiling with -DSSBFT_TRACING=0 removes even that.
//
// Wiring: the Cluster owns a Tracer when Scenario::trace is set and hands
// it to the engines via WorldConfig::tracer. Engines arm a thread-local
// trace::Scope around their dispatch loops (the scope carries the active
// clock), so protocol/network code emits through the free functions below
// without knowing which engine runs it. TraceWriter exports the merged
// timeline as Perfetto / chrome://tracing JSON (load at https://ui.perfetto.dev
// or chrome://tracing).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "util/time.hpp"

// Compile-time kill switch: -DSSBFT_TRACING=0 turns every emission site
// into nothing (the Tracer/TraceWriter types stay available so --trace
// still writes a valid, empty trace).
#ifndef SSBFT_TRACING
#define SSBFT_TRACING 1
#endif

namespace ssbft {

/// How a record renders on the timeline. Sync spans nest per lane (the
/// begin/end pairs form a stack, like a call stack); async spans are keyed
/// by (name, id) and may overlap freely (concurrent agreement rounds).
enum class TraceKind : std::uint8_t {
  kSpanBegin,
  kSpanEnd,
  kAsyncBegin,
  kAsyncEnd,
  kInstant,
  kCounter,
};

/// Which layer of the system emitted the record (the Perfetto category).
enum class TraceLayer : std::uint8_t { kProtocol, kEngine, kWorkload };

[[nodiscard]] const char* to_string(TraceLayer layer);

/// Every record name the simulator emits. A closed enum keeps TraceRecord
/// POD (no string on the hot path) and the writer's name table exhaustive.
enum class TraceName : std::uint16_t {
  // protocol
  kAgreeRound,      // async span: τG anchored → return (id packs node+general)
  kQuorumProgress,  // instant: broadcast accepted into a round set (arg = k)
  kPulse,           // instant: pulse fired (arg = counter)
  kClockSnap,       // instant: clock adjusted (arg = adjustment ns)
  kLogCommit,       // async span: propose → first commit (id = value)
  kCommit,          // instant: one node committed an entry (arg = value)
  kDecision,        // instant: one node returned from agreement (arg = value)
  kDelivery,        // instant: pipelined in-order delivery (arg = seq)
  // engine
  kWindow,          // sync span, lane kLaneWindows: one lookahead window
  kWindowEvents,    // counter: dispatches in the window just accounted
  kOwnerImbalance,  // counter: per-window owner-attributed max/min ×1000
  kSteal,           // instant: a worker claimed a foreign node (arg = events)
  kChaosWindow,     // sync span, lane kLaneDuty: network behaves arbitrarily
  kMigrateToSerial,   // sync span, lane kLaneDuty (arg = wall ns)
  kMigrateToSharded,  // sync span, lane kLaneDuty (arg = wall ns)
  kMigrateExport,     // sync sub-span: export_migration (arg = wall ns)
  kMigrateAdopt,      // sync sub-span: adoption rebuild (arg = wall ns)
  // workload
  kInject,          // instant: workload injection admitted (arg = value)
  kChaosDrop,       // instant: chaos window dropped a message
  kChaosCorrupt,    // instant: chaos window corrupted a message
  kChaosDelay,      // instant: chaos window delayed a message (arg = delay ns)
  kChaosDuplicate,  // instant: chaos window duplicated a message
  kForged,          // instant: forged delivery planted (reserved channel)
  kAuthReject,      // instant: authenticator check failed at delivery
  kRelay,           // instant: topology relay duty executed (arg = route)
};

[[nodiscard]] const char* to_string(TraceName name);

/// Engine-layer lane ids (the `lane` field doubles as the Perfetto tid for
/// engine records; protocol/workload records use their node id instead).
inline constexpr std::uint32_t kLaneWindows = 0;  // ShardWorld window spans
inline constexpr std::uint32_t kLaneDuty = 1;     // chaos windows, migrations
inline constexpr std::uint32_t kLaneWorker0 = 2;  // + worker/shard index

/// One timeline record. POD by construction: emission is a struct copy into
/// a preallocated ring — no allocation, no locks, no system calls.
struct TraceRecord {
  std::int64_t when_ns = 0;   // simulation real-time of the record
  std::uint64_t id = 0;       // async span key / extra correlation id
  std::int64_t arg = 0;       // name-specific payload (value, count, ns)
  std::uint32_t lane = 0;     // node id (protocol/workload) or engine lane
  TraceName name{};
  TraceKind kind{};
  TraceLayer layer{};
};
static_assert(std::is_trivially_copyable_v<TraceRecord>);

/// Fixed-capacity overwrite-oldest ring of TraceRecords. Single-writer (one
/// thread), reader only after the run — no synchronization on push.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity) : ring_(capacity) {}

  void push(const TraceRecord& r) {
    ring_[count_ % ring_.size()] = r;
    ++count_;
  }

  /// Records pushed in total (including overwritten ones).
  [[nodiscard]] std::uint64_t pushed() const { return count_; }
  /// Records lost to overwrite.
  [[nodiscard]] std::uint64_t dropped() const {
    return count_ > ring_.size() ? count_ - ring_.size() : 0;
  }
  /// Surviving records, oldest first.
  void append_to(std::vector<TraceRecord>& out) const;

 private:
  std::vector<TraceRecord> ring_;
  std::uint64_t count_ = 0;
};

/// The per-run trace collector. Owns one ring buffer per emitting thread
/// (created on first use, cached thread-locally) plus keyed buffers for
/// single-threaded engine emission, where a deterministic merge order
/// matters (the barrier-completion step runs on whichever worker arrives
/// last — a thread buffer would make the merge order run-dependent).
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t(1) << 16;

  explicit Tracer(std::size_t buffer_capacity = kDefaultCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's ring (thread-local cache; first call locks).
  [[nodiscard]] TraceBuffer* thread_buffer();
  /// A keyed ring independent of the emitting thread. Buffers merge in key
  /// order, before all thread buffers.
  [[nodiscard]] TraceBuffer* keyed_buffer(std::uint32_t key);

  /// Convenience: push through the calling thread's ring.
  void emit(const TraceRecord& r) { thread_buffer()->push(r); }

  /// All surviving records, merged: keyed buffers (by key), then thread
  /// buffers (by creation), stable-sorted by timestamp — so equal-time
  /// records keep their per-buffer emission order.
  [[nodiscard]] std::vector<TraceRecord> merged() const;

  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  const std::uint64_t epoch_;  // unique per Tracer; validates the TL cache
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceBuffer>> thread_buffers_;
  std::vector<std::pair<std::uint32_t, std::unique_ptr<TraceBuffer>>> keyed_;
};

namespace trace {

/// The thread's armed emission context: where records go and what time it
/// is. Unarmed (buf == nullptr) ⇒ every emission site is a no-op. Armed by
/// the engines around their dispatch loops via Scope.
struct Ctx {
  TraceBuffer* buf = nullptr;
  const RealTime* now = nullptr;  // the active queue's clock (stable address)
};

inline thread_local Ctx tl_ctx;

/// RAII arming of the calling thread's emission context. Null tracer ⇒
/// no-op (the common, untraced case). Scopes nest; the previous context is
/// restored on exit.
class Scope {
 public:
  Scope(Tracer* tracer, const RealTime* now) {
#if SSBFT_TRACING
    if (tracer == nullptr) return;
    prev_ = tl_ctx;
    tl_ctx = Ctx{tracer->thread_buffer(), now};
    armed_ = true;
#else
    (void)tracer;
    (void)now;
#endif
  }
  ~Scope() {
#if SSBFT_TRACING
    if (armed_) tl_ctx = prev_;
#endif
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ctx prev_{};
  bool armed_ = false;
};

// --- emission sites ---------------------------------------------------------
// All free functions: protocol and network code calls these without holding
// a Tracer (or even knowing whether one exists). Unarmed ⇒ one TL load and
// a branch; SSBFT_TRACING=0 ⇒ nothing at all.

inline void emit(TraceLayer layer, TraceName name, TraceKind kind,
                 std::uint32_t lane, std::uint64_t id, std::int64_t arg) {
#if SSBFT_TRACING
  const Ctx& c = tl_ctx;
  if (c.buf == nullptr) return;
  c.buf->push(TraceRecord{c.now->ns(), id, arg, lane, name, kind, layer});
#else
  (void)layer; (void)name; (void)kind; (void)lane; (void)id; (void)arg;
#endif
}

/// Explicit-timestamp form (probe records carry their own real_at).
inline void emit_at(RealTime when, TraceLayer layer, TraceName name,
                    TraceKind kind, std::uint32_t lane, std::uint64_t id,
                    std::int64_t arg) {
#if SSBFT_TRACING
  const Ctx& c = tl_ctx;
  if (c.buf == nullptr) return;
  c.buf->push(TraceRecord{when.ns(), id, arg, lane, name, kind, layer});
#else
  (void)when; (void)layer; (void)name; (void)kind; (void)lane; (void)id;
  (void)arg;
#endif
}

inline void instant(TraceLayer layer, TraceName name, std::uint32_t lane,
                    std::int64_t arg = 0) {
  emit(layer, name, TraceKind::kInstant, lane, 0, arg);
}

inline void async_begin(TraceLayer layer, TraceName name, std::uint64_t id,
                        std::uint32_t lane, std::int64_t arg = 0) {
  emit(layer, name, TraceKind::kAsyncBegin, lane, id, arg);
}

inline void async_end(TraceLayer layer, TraceName name, std::uint64_t id,
                      std::uint32_t lane, std::int64_t arg = 0) {
  emit(layer, name, TraceKind::kAsyncEnd, lane, id, arg);
}

}  // namespace trace

/// Exports a merged record timeline as Perfetto / chrome://tracing JSON
/// ({"traceEvents": [...]}). The writer normalizes before serializing:
/// records sort by timestamp, orphaned span ends are dropped, and spans
/// still open at the end of the trace are closed at the final timestamp —
/// so the artifact always satisfies tools/trace_check.py (balanced,
/// monotone) even when a run stops mid-round or a ring overwrote a begin.
class TraceWriter {
 public:
  /// Serialize to a string (tests); `dropped` lands in otherData.
  [[nodiscard]] static std::string to_json(std::vector<TraceRecord> records,
                                           std::uint64_t dropped = 0);
  /// Serialize straight to `path`. Returns false on I/O failure.
  static bool write_json(const Tracer& tracer, const std::string& path);
};

}  // namespace ssbft
