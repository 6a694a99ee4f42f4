// Cluster: the stack-agnostic deployment facade.
//
// A Cluster turns a Scenario into a running World: it builds the configured
// protocol stack on every correct node through the StackRegistry, installs
// the configured adversary on every Byzantine node, schedules the workload,
// and publishes every stack's metrics streams — decisions, pulses, clock
// adjustments, committed entries, deliveries — through a Probe, each record
// stamped with the *real* time the nodes themselves never see.
#pragma once

#include <memory>
#include <vector>

#include "core/node.hpp"
#include "harness/probe.hpp"
#include "harness/scenario.hpp"
#include "sim/world.hpp"
#include "util/assert.hpp"

namespace ssbft {

class Tracer;  // harness/trace.hpp

class Cluster {
 public:
  /// Engine choice. kAuto is the rule world() documents. kWindowed runs a
  /// chaos-free scenario on the windowed engine even at one shard (the
  /// caller's thread dispatching node-major, no workers) — how the benches'
  /// one-thread rows and the one-shard parity tests reach that engine. It
  /// needs a positive delay floor and no chaos schedule.
  enum class Engine : std::uint8_t { kAuto, kWindowed };

  explicit Cluster(const Scenario& scenario, Engine engine = Engine::kAuto);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// The deployed engine: the serial World, the sharded engine when the
  /// scenario asks for shards AND offers a positive delay floor (the
  /// lookahead), or — for chaos scenarios with shards — the alternating
  /// DutyWorld (serial inside each chaos window, windowed between them,
  /// migrating at every boundary; see sim/duty_world.hpp). Without a
  /// lookahead, sharding degrades to serial execution, never to wrongness.
  /// Serial-only internals (network(), queue()) abort on the sharded
  /// engine and on the alternating engine during its sharded segments;
  /// everything else is common.
  [[nodiscard]] WorldBase& world() { return *world_; }
  /// Shards the deployment actually runs on (1 ⇒ serial engine; for the
  /// alternating engine: its sharded segments' shard count).
  [[nodiscard]] std::uint32_t shards() const { return shards_; }
  [[nodiscard]] bool sharded() const { return shards_ > 1; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

  /// The stack node at `id` as type T, or nullptr if `id` is Byzantine (or
  /// runs a different behavior than T). Defaults to the agreement stack's
  /// node type, so `cluster.node(0)` keeps reading naturally for kAgree.
  template <typename T = SsByzNode>
  [[nodiscard]] T* node(NodeId id) {
    SSBFT_EXPECTS(id < scenario_.n);
    return dynamic_cast<T*>(stack_nodes_[id]);
  }

  /// Untyped stack behavior at `id` (nullptr if Byzantine).
  [[nodiscard]] NodeBehavior* behavior_at(NodeId id) {
    SSBFT_EXPECTS(id < scenario_.n);
    return stack_nodes_[id];
  }

  /// Schedule a workload injection (in addition to the scenario's). The
  /// meaning is stack-dependent: propose() for kAgree/kBaselineTps,
  /// submit() for the log stacks, ignored by kPulse/kClockSync.
  void propose_at(Duration at, NodeId general, Value value);

  /// Start the world (and apply the scenario's transient scramble, if any)
  /// without running. Use with world().run_* for piecewise runs that sample
  /// state mid-flight; idempotent, and implied by run().
  void start();

  /// Run the whole scenario (start + run_for). Streams accumulate in the
  /// probe either way.
  void run();

  // --- observation --------------------------------------------------------
  /// The deployment's recording probe (every stream, real-time stamped).
  [[nodiscard]] const RecordingProbe& probe() const { return recording_; }
  /// Attach an additional observer (not owned; must outlive the run).
  void add_probe(Probe* probe) { hub_.attach(probe); }
  /// The structured-trace collector, or nullptr unless Scenario::trace was
  /// set. Export with TraceWriter::write_json after the run.
  [[nodiscard]] Tracer* tracer() const { return tracer_.get(); }

  /// Convenience accessors for the agreement streams (every stack publishes
  /// them — for layered stacks, via the embedded agreement node's tap).
  [[nodiscard]] const std::vector<TimedDecision>& decisions() const {
    return recording_.decisions();
  }
  [[nodiscard]] const std::vector<TimedProposal>& proposals() const {
    return recording_.proposals();
  }
  [[nodiscard]] std::uint32_t correct_count() const { return correct_count_; }

 private:
  void build(Engine engine);
  void inject(NodeId target, Value value);

  Scenario scenario_;
  Params params_;
  // Probes before the world: behaviors hold sinks into the hub, so the hub
  // must outlive every behavior the world owns.
  ProbeHub hub_;
  RecordingProbe recording_;
  // Tracer before the world: engines cache per-thread buffers while
  // dispatching, so the collector must outlive the engine.
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<WorldBase> world_;
  std::vector<NodeBehavior*> stack_nodes_;  // indexed by NodeId, may be null
  std::uint32_t correct_count_ = 0;
  std::uint32_t shards_ = 1;
  bool started_ = false;
  bool ran_ = false;
};

}  // namespace ssbft
