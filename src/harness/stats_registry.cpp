#include "harness/stats_registry.hpp"

#include <cstdio>

#include "harness/runner.hpp"
#include "harness/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/payload.hpp"
#include "sim/world.hpp"

namespace ssbft {

const StatsEntry* StatsRegistry::find(const std::string& path) const {
  for (const StatsEntry& e : entries_) {
    if (e.path == path) return &e;
  }
  return nullptr;
}

std::string StatsRegistry::to_json() const {
  std::string out = "{\"stats\": [\n";
  char line[512];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const StatsEntry& e = entries_[i];
    std::snprintf(line, sizeof line,
                  "  {\"path\": \"%s\", \"value\": %.6g, \"unit\": \"%s\", "
                  "\"help\": \"%s\"}%s\n",
                  e.path.c_str(), e.value, e.unit, e.help,
                  i + 1 == entries_.size() ? "" : ",");
    out += line;
  }
  out += "]}\n";
  return out;
}

bool StatsRegistry::write_json(const std::string& path) const {
  const std::string json = to_json();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), out);
  const bool flushed = std::fclose(out) == 0;
  return written == json.size() && flushed;
}

void QueueGauges::add(const EventQueue& queue) {
  depth += double(queue.size());
  slab_capacity += double(queue.slab_capacity());
  peak_bytes += double(queue.peak_bytes());
}

void QueueGauges::report(StatsRegistry& reg) const {
  reg.add("queue.depth", depth, "events",
          "events pending in the event queues at the end of the run");
  reg.add("queue.slab_capacity", slab_capacity, "slots",
          "slab slots allocated (peak in-flight, chunk-rounded), summed "
          "over the engine's queues");
  reg.add("queue.peak_bytes", peak_bytes, "bytes",
          "queue backing-store footprint (closure slab + heap; grow-only, "
          "so current = peak), summed over the engine's queues");
}

void add_sched_stats(StatsRegistry& reg, const WindowStats& st) {
  reg.add("sched.windows", double(st.windows), "count",
          "lookahead windows run by the sharded engine");
  reg.add("sched.measured_windows", double(st.measured_windows), "count",
          "windows with at least one dispatch");
  reg.add("sched.window_events", double(st.window_events), "events",
          "dispatches summed over measured windows");
  reg.add("sched.steals", double(st.steals), "count",
          "foreign-shard node claims");
  reg.add("sched.stolen_events", double(st.stolen_events), "events",
          "events executed on a thief worker");
  reg.add("sched.imbalance_mean", st.imbalance_mean(), "ratio",
          "mean per-window max/min EXECUTOR dispatch ratio");
  reg.add("sched.imbalance_max", st.imbalance_max, "ratio",
          "worst per-window executor imbalance");
  reg.add("sched.owner_imbalance_mean", st.owner_imbalance_mean(), "ratio",
          "mean per-window max/min OWNER-shard dispatch ratio (the skew "
          "of the node blocks, before stealing)");
  reg.add("sched.owner_imbalance_max", st.owner_imbalance_max, "ratio",
          "worst per-window owner-shard imbalance");
}

StatsRegistry collect_run_stats(Cluster& cluster) {
  StatsRegistry reg;
  WorldBase& world = cluster.world();

  reg.add("run.now_ms", world.now().millis(), "ms",
          "simulation time of the last dispatch / run horizon");
  reg.add("run.dispatched", double(world.dispatched()), "events",
          "events dispatched (net of suppressed timer pops)");
  reg.add("run.shards", double(cluster.shards()), "count",
          "shard count the deployment runs on (1 = serial engine)");

  const NetworkStats net = world.net_stats();
  reg.add("net.sent", double(net.sent), "count", "sends admitted");
  reg.add("net.delivered", double(net.delivered), "count",
          "copies handed to a destination");
  reg.add("net.dropped", double(net.dropped), "count",
          "chaos-dropped messages");
  reg.add("net.corrupted", double(net.corrupted), "count",
          "chaos-corrupted messages");
  reg.add("net.duplicated", double(net.duplicated), "count",
          "chaos-duplicated messages");
  reg.add("net.forged", double(net.forged), "count",
          "forged deliveries on the reserved channel");
  reg.add("net.auth_rejected", double(net.auth_rejected), "count",
          "deliveries discarded by the authenticator check");
  reg.add("net.payload_bytes", double(net.payload_bytes), "bytes",
          "application payload bytes admitted at send (per unicast copy)");
  reg.add("net.payload_live", double(payload_pool().live()), "slots",
          "pool slots still referenced at collection time (0 = no leaks)");
  reg.add("net.pool_peak_bytes", double(payload_pool().peak_bytes()), "bytes",
          "high-water mark of payload bytes resident in live pool slots");
  reg.add("net.topology_hops", double(net.topology_hops), "count",
          "deliveries that arrived via a topology relay (route != direct)");
  reg.add("net.fanout_msgs", double(net.fanout_msgs), "count",
          "message copies forwarded by topology relay duty");

  world.collect_stats(reg);  // queue.*, sched.*, duty.*
  // Every engine has exactly one wheel (DutyWorld's moves with each cut).
  const TimerWheel& wheel = world.timers();
  reg.add("wheel.armed", double(wheel.armed()), "count",
          "timer records still armed in the wheel");
  reg.add("wheel.live", double(wheel.live()), "count",
          "live timer slab records (armed + handed over)");
  reg.add("wheel.peak_records", double(wheel.peak_live()), "count",
          "high-water mark of live timer records");
  reg.add("wheel.overflow", double(wheel.overflow_size()), "count",
          "records parked in the overflow level");

  if (const Tracer* tracer = cluster.tracer()) {
    reg.add("trace.recorded", double(tracer->recorded()), "count",
            "trace records emitted");
    reg.add("trace.dropped", double(tracer->dropped()), "count",
            "trace records lost to ring overwrite");
  }
  return reg;
}

}  // namespace ssbft
