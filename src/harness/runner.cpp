#include "harness/runner.hpp"

#include <utility>

#include "adversary/adversaries.hpp"
#include "harness/stack_registry.hpp"
#include "harness/trace.hpp"
#include "sim/fault_injector.hpp"
#include "sim/duty_world.hpp"
#include "sim/shard_world.hpp"

namespace ssbft {

namespace {

std::unique_ptr<NodeBehavior> make_adversary(const Scenario& sc, NodeId id) {
  switch (sc.adversary) {
    case AdversaryKind::kSilent:
      return std::make_unique<SilentAdversary>();
    case AdversaryKind::kNoise:
      return std::make_unique<RandomNoiseAdversary>(sc.adversary_period);
    case AdversaryKind::kEquivocatingGeneral:
      return std::make_unique<EquivocatingGeneral>(
          sc.equivocate_v0, sc.equivocate_v1, sc.adversary_start,
          sc.equivocate_split);
    case AdversaryKind::kStaggeredGeneral:
      return std::make_unique<StaggeredGeneral>(
          sc.equivocate_v0, sc.adversary_start, sc.stagger_span);
    case AdversaryKind::kSpamGeneral:
      return std::make_unique<SpamGeneral>(sc.adversary_period);
    case AdversaryKind::kReplay:
      return std::make_unique<ReplayAdversary>(sc.adversary_period * 8);
    case AdversaryKind::kQuorumFaker: {
      // Victims: the first ⌊n/2⌋ CORRECT nodes. Blindly taking ids 0..n/2
      // could include the faker itself and fellow Byzantine nodes — wasting
      // the attack budget and making the victim set depend on where the
      // Byzantine ids happen to sit.
      std::vector<NodeId> victims;
      for (NodeId v = 0; v < sc.n && victims.size() < sc.n / 2; ++v) {
        if (v == id || sc.is_byzantine(v)) continue;
        victims.push_back(v);
      }
      return std::make_unique<QuorumFaker>(GeneralId{id}, sc.equivocate_v0,
                                           sc.adversary_period,
                                           std::move(victims));
    }
  }
  SSBFT_EXPECTS(!"unknown AdversaryKind");  // every kind returns above
  std::abort();
}

}  // namespace

Cluster::Cluster(const Scenario& scenario, Engine engine)
    : scenario_(scenario), params_(scenario.make_params()) {
  hub_.attach(&recording_);
  build(engine);
}

Cluster::~Cluster() = default;

void Cluster::build(Engine engine) {
  WorldConfig wc;
  wc.n = scenario_.n;
  wc.delta = scenario_.delta;
  wc.pi = scenario_.pi;
  wc.rho = scenario_.rho;
  if (scenario_.link_delay) {
    wc.link_delay = *scenario_.link_delay;
    wc.proc_delay = DelayModel::uniform(Duration::zero(), scenario_.pi);
    wc.has_delay_models = true;
  }
  if (scenario_.max_clock_offset) {
    wc.max_clock_offset = *scenario_.max_clock_offset;
  } else if (scenario_.stack == StackKind::kBaselineTps) {
    // The baseline's synchrony assumption: a common, already-synchronized
    // start. The paper's protocol never gets this gift.
    wc.max_clock_offset = Duration::zero();
  }
  wc.seed = scenario_.seed;
  wc.log_level = scenario_.log_level;
  wc.auth = scenario_.auth;
  wc.shards = scenario_.shards;
  wc.timer_wheel = scenario_.timer_wheel;
  if (scenario_.trace) {
    tracer_ = std::make_unique<Tracer>();
    wc.tracer = tracer_.get();
  }
  wc.resolve_delay_models();
  // A malformed chaos duty cycle (overlapping windows, negative knobs)
  // must never silently run — refuse at build time. Degenerate-but-sound
  // cycles normalize to fewer (possibly zero) windows instead.
  SSBFT_EXPECTS(scenario_.validate_chaos() == nullptr);
  // Same contract for the dissemination overlay: malformed knobs refuse,
  // chaos schedules degrade non-flat topologies to flat (effective_topology).
  SSBFT_EXPECTS(scenario_.validate_topology() == nullptr);
  wc.topology = scenario_.effective_topology();
  const std::vector<ChaosWindow> windows = scenario_.chaos_windows();
  // Engine selection — schedule-aware: the sharded engine needs a
  // conservative lookahead (positive delay floor); without one, sharding
  // degrades to the serial engine — identical results either way
  // (test_shard). A chaos schedule no longer pins the whole run serial:
  // each window is a serial-engine segment (its delays undercut any
  // lookahead), so the DutyWorld alternates — serial inside the windows,
  // the windowed engine between them — with a full state migration at
  // every boundary. The stabilization stretches scale, digests stay
  // bit-identical to all-serial (test_duty).
  shards_ = ShardWorld::effective_shards(wc);
  if (engine == Engine::kWindowed) {
    SSBFT_EXPECTS(windows.empty() && wc.lookahead() > Duration::zero());
  }
  if (shards_ > 1 && !windows.empty()) {
    world_ = std::make_unique<DutyWorld>(wc, windows);
  } else if (shards_ > 1 || engine == Engine::kWindowed) {
    world_ = std::make_unique<ShardWorld>(wc);
  } else {
    world_ = std::make_unique<World>(wc);
    if (!windows.empty()) world_->network().set_faulty_windows(windows);
  }

  const StackFactory& factory =
      StackRegistry::instance().entry(scenario_.stack).factory;
  stack_nodes_.assign(scenario_.n, nullptr);
  for (NodeId id = 0; id < scenario_.n; ++id) {
    if (scenario_.is_byzantine(id)) {
      world_->set_behavior(id, make_adversary(scenario_, id));
      continue;
    }
    ++correct_count_;
    auto behavior =
        factory(StackBuild{scenario_, params_, id, *world_, hub_});
    stack_nodes_[id] = behavior.get();
    world_->set_behavior(id, std::move(behavior));
  }

  for (const auto& proposal : scenario_.proposals) {
    propose_at(proposal.at, proposal.general, proposal.value);
  }
}

void Cluster::propose_at(Duration at, NodeId general, Value value) {
  SSBFT_EXPECTS(general < scenario_.n);
  world_->schedule(RealTime::zero() + at, general, [this, general, value] {
    inject(general, value);
  });
}

void Cluster::inject(NodeId target, Value value) {
  NodeBehavior* behavior = stack_nodes_[target];
  if (behavior == nullptr) return;  // Byzantine target: adversary's job
  const StackInjector& injector =
      StackRegistry::instance().entry(scenario_.stack).injector;
  if (!injector) return;  // self-clocking stack: no external workload
  // The command body: a deterministic pattern derived from the value, so
  // every engine builds bit-identical bytes (and every correct node can be
  // checked against the same checksum downstream).
  const Payload payload = scenario_.payload_bytes == 0
                              ? Payload{}
                              : make_patterned_payload(scenario_.payload_bytes,
                                                       value);
  const auto status = injector(*behavior, value, payload);
  trace::instant(TraceLayer::kWorkload, TraceName::kInject, target,
                 std::int64_t(value));
  if (status) {
    hub_.on_proposal(TimedProposal{world_->now(), target, value, *status});
  }
}

void Cluster::start() {
  if (started_) return;
  started_ = true;
  world_->start();
  if (scenario_.transient_scramble) {
    FaultInjector injector(*world_);
    injector.transient_fault(scenario_.transient);
  }
}

void Cluster::run() {
  SSBFT_EXPECTS(!ran_);
  ran_ = true;
  start();
  world_->run_until(RealTime::zero() + scenario_.run_for);
}

}  // namespace ssbft
