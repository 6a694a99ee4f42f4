#include "harness/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

namespace ssbft {

const char* to_string(TraceLayer layer) {
  switch (layer) {
    case TraceLayer::kProtocol: return "protocol";
    case TraceLayer::kEngine: return "engine";
    case TraceLayer::kWorkload: return "workload";
  }
  return "?";
}

const char* to_string(TraceName name) {
  switch (name) {
    case TraceName::kAgreeRound: return "agree_round";
    case TraceName::kQuorumProgress: return "quorum_progress";
    case TraceName::kPulse: return "pulse";
    case TraceName::kClockSnap: return "clock_snap";
    case TraceName::kLogCommit: return "log_commit";
    case TraceName::kCommit: return "commit";
    case TraceName::kDecision: return "decision";
    case TraceName::kDelivery: return "delivery";
    case TraceName::kWindow: return "window";
    case TraceName::kWindowEvents: return "window_events";
    case TraceName::kOwnerImbalance: return "owner_imbalance_x1000";
    case TraceName::kSteal: return "steal";
    case TraceName::kChaosWindow: return "chaos_window";
    case TraceName::kMigrateToSerial: return "migrate_to_serial";
    case TraceName::kMigrateToSharded: return "migrate_to_sharded";
    case TraceName::kMigrateExport: return "migrate_export";
    case TraceName::kMigrateAdopt: return "migrate_adopt";
    case TraceName::kInject: return "inject";
    case TraceName::kChaosDrop: return "chaos_drop";
    case TraceName::kChaosCorrupt: return "chaos_corrupt";
    case TraceName::kChaosDelay: return "chaos_delay";
    case TraceName::kChaosDuplicate: return "chaos_duplicate";
    case TraceName::kForged: return "forged";
    case TraceName::kAuthReject: return "auth_reject";
    case TraceName::kRelay: return "topology_relay";
  }
  return "?";
}

void TraceBuffer::append_to(std::vector<TraceRecord>& out) const {
  const std::uint64_t size =
      count_ < ring_.size() ? count_ : std::uint64_t(ring_.size());
  const std::uint64_t first = count_ - size;  // oldest surviving push index
  out.reserve(out.size() + std::size_t(size));
  for (std::uint64_t i = 0; i < size; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
}

namespace {

// Unique per-Tracer epoch: a thread's cached buffer pointer is only valid
// for the tracer that created it; a destroyed tracer's epoch never recurs,
// so stale caches miss instead of dereferencing a dead buffer.
std::atomic<std::uint64_t> g_tracer_epoch{1};

struct TlBufferCache {
  std::uint64_t epoch = 0;
  TraceBuffer* buf = nullptr;
};
thread_local TlBufferCache tl_buffer_cache;

}  // namespace

Tracer::Tracer(std::size_t buffer_capacity)
    : epoch_(g_tracer_epoch.fetch_add(1, std::memory_order_relaxed)),
      capacity_(buffer_capacity == 0 ? 1 : buffer_capacity) {}

Tracer::~Tracer() = default;

TraceBuffer* Tracer::thread_buffer() {
  TlBufferCache& cache = tl_buffer_cache;
  if (cache.epoch == epoch_) return cache.buf;
  std::lock_guard<std::mutex> lock(mutex_);
  thread_buffers_.push_back(std::make_unique<TraceBuffer>(capacity_));
  cache = TlBufferCache{epoch_, thread_buffers_.back().get()};
  return cache.buf;
}

TraceBuffer* Tracer::keyed_buffer(std::uint32_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [k, buf] : keyed_) {
    if (k == key) return buf.get();
  }
  keyed_.emplace_back(key, std::make_unique<TraceBuffer>(capacity_));
  return keyed_.back().second.get();
}

std::vector<TraceRecord> Tracer::merged() const {
  std::vector<TraceRecord> out;
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint32_t> keys;
  for (const auto& [k, buf] : keyed_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  for (const std::uint32_t k : keys) {
    for (const auto& [key, buf] : keyed_) {
      if (key == k) buf->append_to(out);
    }
  }
  for (const auto& buf : thread_buffers_) buf->append_to(out);
  // Stable: equal-time records keep their per-buffer emission order, and
  // the keyed (single-threaded engine) buffers lead — so window/chaos span
  // begin/end pairs never interleave illegally at shared edges.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.when_ns < b.when_ns;
                   });
  return out;
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [k, buf] : keyed_) total += buf->pushed();
  for (const auto& buf : thread_buffers_) total += buf->pushed();
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [k, buf] : keyed_) total += buf->dropped();
  for (const auto& buf : thread_buffers_) total += buf->dropped();
  return total;
}

namespace {

/// Protocol/workload records render on per-node tracks; engine records on
/// their lane tracks. Offsetting node tids keeps the two spaces disjoint.
constexpr std::uint32_t kNodeTidBase = 1000;

std::uint32_t tid_of(const TraceRecord& r) {
  return r.layer == TraceLayer::kEngine ? r.lane : kNodeTidBase + r.lane;
}

void append_tid_name(std::string& out, std::uint32_t tid) {
  char buf[32];  // longest is "node 4294967295" — keeps `line` provably ample
  if (tid >= kNodeTidBase) {
    std::snprintf(buf, sizeof buf, "node %u", tid - kNodeTidBase);
  } else if (tid == kLaneWindows) {
    std::snprintf(buf, sizeof buf, "engine windows");
  } else if (tid == kLaneDuty) {
    std::snprintf(buf, sizeof buf, "duty cycle");
  } else {
    std::snprintf(buf, sizeof buf, "worker %u", tid - kLaneWorker0);
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                "\"tid\":%u,\"args\":{\"name\":\"%s\"}},\n",
                tid, buf);
  out += line;
}

void append_event(std::string& out, const TraceRecord& r, bool last) {
  const char* name = to_string(r.name);
  const char* cat = to_string(r.layer);
  const double ts = double(r.when_ns) / 1000.0;  // microseconds
  const std::uint32_t tid = tid_of(r);
  char line[320];
  switch (r.kind) {
    case TraceKind::kSpanBegin:
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"B\","
                    "\"ts\":%.3f,\"pid\":0,\"tid\":%u,"
                    "\"args\":{\"arg\":%lld}}",
                    name, cat, ts, tid, static_cast<long long>(r.arg));
      break;
    case TraceKind::kSpanEnd:
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"E\","
                    "\"ts\":%.3f,\"pid\":0,\"tid\":%u}",
                    name, cat, ts, tid);
      break;
    case TraceKind::kAsyncBegin:
    case TraceKind::kAsyncEnd:
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                    "\"id\":\"0x%llx\",\"ts\":%.3f,\"pid\":0,\"tid\":%u,"
                    "\"args\":{\"arg\":%lld}}",
                    name, cat, r.kind == TraceKind::kAsyncBegin ? 'b' : 'e',
                    static_cast<unsigned long long>(r.id), ts, tid,
                    static_cast<long long>(r.arg));
      break;
    case TraceKind::kInstant:
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                    "\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%u,"
                    "\"args\":{\"arg\":%lld}}",
                    name, cat, ts, tid, static_cast<long long>(r.arg));
      break;
    case TraceKind::kCounter:
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"C\","
                    "\"ts\":%.3f,\"pid\":0,\"tid\":%u,"
                    "\"args\":{\"value\":%lld}}",
                    name, cat, ts, tid, static_cast<long long>(r.arg));
      break;
  }
  out += line;
  out += last ? "\n" : ",\n";
}

}  // namespace

std::string TraceWriter::to_json(std::vector<TraceRecord> records,
                                 std::uint64_t dropped) {
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.when_ns < b.when_ns;
                   });

  // Normalize: a valid artifact needs every sync stack balanced per lane
  // and every async (name, id) opened as often as it closes. Runs stop
  // mid-round all the time (that is what the horizon means), and a ring
  // can overwrite a begin — drop orphaned ends, close open spans at the
  // final timestamp.
  const std::int64_t last_ns = records.empty() ? 0 : records.back().when_ns;
  std::vector<TraceRecord> kept;
  kept.reserve(records.size());
  std::map<std::uint32_t, std::vector<TraceRecord>> sync_open;  // per tid
  std::map<std::pair<std::uint16_t, std::uint64_t>, std::uint32_t> async_open;
  for (const TraceRecord& r : records) {
    switch (r.kind) {
      case TraceKind::kSpanBegin:
        sync_open[tid_of(r)].push_back(r);
        break;
      case TraceKind::kSpanEnd: {
        auto& stack = sync_open[tid_of(r)];
        if (stack.empty() || stack.back().name != r.name) continue;  // orphan
        stack.pop_back();
        break;
      }
      case TraceKind::kAsyncBegin:
        ++async_open[{std::uint16_t(r.name), r.id}];
        break;
      case TraceKind::kAsyncEnd: {
        auto it = async_open.find({std::uint16_t(r.name), r.id});
        if (it == async_open.end() || it->second == 0) continue;  // orphan
        --it->second;
        break;
      }
      default:
        break;
    }
    kept.push_back(r);
  }
  std::vector<TraceRecord> closers;
  for (auto& [tid, stack] : sync_open) {
    while (!stack.empty()) {  // LIFO: innermost closes first
      TraceRecord end = stack.back();
      stack.pop_back();
      end.kind = TraceKind::kSpanEnd;
      end.when_ns = last_ns;
      closers.push_back(end);
    }
  }
  for (const auto& [key, open] : async_open) {
    for (std::uint32_t i = 0; i < open; ++i) {
      TraceRecord end{};
      end.when_ns = last_ns;
      end.id = key.second;
      end.name = TraceName(key.first);
      end.kind = TraceKind::kAsyncEnd;
      // Layer/lane of the closer are cosmetic; async pairing is by
      // (name, id). Protocol is the only async emitter today.
      end.layer = TraceLayer::kProtocol;
      closers.push_back(end);
    }
  }
  kept.insert(kept.end(), closers.begin(), closers.end());

  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  {
    char buf[96];
    std::snprintf(buf, sizeof buf, "\"dropped_records\":\"%llu\"},\n",
                  static_cast<unsigned long long>(dropped));
    out += buf;
  }
  out += "\"traceEvents\":[\n";
  std::set<std::uint32_t> tids;
  for (const TraceRecord& r : kept) tids.insert(tid_of(r));
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
      "\"args\":{\"name\":\"ssbft-sim\"}},\n";
  for (const std::uint32_t tid : tids) append_tid_name(out, tid);
  if (kept.empty()) {
    // Drop the trailing ",\n" after the last metadata event.
    out.erase(out.size() - 2);
    out += "\n";
  }
  for (std::size_t i = 0; i < kept.size(); ++i) {
    append_event(out, kept[i], i + 1 == kept.size());
  }
  out += "]}\n";
  return out;
}

bool TraceWriter::write_json(const Tracer& tracer, const std::string& path) {
  const std::string json = to_json(tracer.merged(), tracer.dropped());
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), out);
  const bool ok = written == json.size() && std::fclose(out) == 0;
  if (!ok && written != json.size()) std::fclose(out);
  return ok;
}

}  // namespace ssbft
