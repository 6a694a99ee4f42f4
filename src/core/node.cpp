#include "core/node.hpp"

#include <utility>

#include "util/assert.hpp"

namespace ssbft {

const char* to_string(ProposeStatus s) {
  switch (s) {
    case ProposeStatus::kSent: return "sent";
    case ProposeStatus::kTooSoon: return "too-soon (IG1)";
    case ProposeStatus::kTooSoonSameValue: return "too-soon-same-value (IG2)";
    case ProposeStatus::kBackoff: return "backoff (IG3)";
    case ProposeStatus::kNotStarted: return "not-started";
  }
  return "?";
}

SsByzNode::SsByzNode(Params params, DecisionSink sink)
    : params_(std::move(params)), sink_(std::move(sink)) {}

SsByzNode::~SsByzNode() = default;

std::uint64_t SsByzNode::encode_cookie(GeneralId general, TimerOp op,
                                       std::uint32_t payload) {
  // Layout (bits, high→low): node 48..61 | index 40..47 | op 32..39 |
  // payload 0..31. Bits 62/63 stay clear — embedding layers (pulse, log)
  // use them to separate their own timer namespaces.
  SSBFT_ASSERT(general.node < (1u << 14));
  SSBFT_ASSERT(general.index < (1u << 8));
  return (std::uint64_t(general.node) << 48) |
         (std::uint64_t(general.index) << 40) | (std::uint64_t(op) << 32) |
         payload;
}

void SsByzNode::decode_cookie(std::uint64_t cookie, GeneralId& general,
                              TimerOp& op, std::uint32_t& payload) {
  general.node = NodeId((cookie >> 48) & 0x3FFF);
  general.index = std::uint32_t((cookie >> 40) & 0xFF);
  op = TimerOp((cookie >> 32) & 0xFF);
  payload = std::uint32_t(cookie & 0xFFFFFFFF);
}

void SsByzNode::on_start(NodeContext& ctx) { ctx_ = &ctx; }

SsByzAgree& SsByzNode::get_instance(GeneralId general) {
  auto it = instances_.find(general);
  if (it == instances_.end()) {
    auto inst = std::make_unique<SsByzAgree>(
        params_, general, [this, general](const AgreeResult& result) {
          if (!sink_ && !tap_) return;
          Decision decision;
          decision.node = ctx_ ? ctx_->id() : kNoNode;
          decision.general = general;
          decision.value = result.value;
          decision.tau_g = result.tau_g;
          decision.at = result.returned_at;
          if (sink_) sink_(decision);
          if (tap_) tap_(decision);
        });
    auto* raw = inst.get();
    raw->set_timer_service(
        [this, general](LocalTime when, SsByzAgree::TimerKind kind,
                        std::uint32_t payload) {
          SSBFT_ASSERT(ctx_ != nullptr);
          const TimerOp op = kind == SsByzAgree::TimerKind::kRoundDeadline
                                 ? TimerOp::kAgreeRoundDeadline
                                 : TimerOp::kAgreePostReturn;
          return ctx_->set_timer(when, encode_cookie(general, op, payload));
        },
        [this](TimerHandle handle) {
          return ctx_ != nullptr && ctx_->cancel_timer(handle);
        });
    it = instances_.try_emplace(general, std::move(inst)).first;
  }
  return *it->second;
}

SsByzAgree& SsByzNode::instance(GeneralId general) {
  return get_instance(general);
}

bool SsByzNode::has_instance(GeneralId general) const {
  return instances_.contains(general);
}

void SsByzNode::on_message(NodeContext& ctx, const WireMessage& msg) {
  switch (msg.kind) {
    case MsgKind::kInitiator:
    case MsgKind::kSupport:
    case MsgKind::kApprove:
    case MsgKind::kReady:
    case MsgKind::kBcastInit:
    case MsgKind::kBcastEcho:
    case MsgKind::kBcastInitPrime:
    case MsgKind::kBcastEchoPrime: {
      if (msg.general.node >= ctx.n()) return;  // forged junk instance id
      // Footnote-9 bound: indices ≥ max_indices are dropped, capping the
      // instance table a Byzantine sender can force us to materialize.
      if (msg.general.index >= params_.max_indices()) return;
      get_instance(msg.general).on_message(ctx, msg);
      break;
    }
    default:
      break;  // baseline traffic etc.
  }
}

void SsByzNode::on_timer(NodeContext& ctx, std::uint64_t cookie) {
  GeneralId general;
  TimerOp op;
  std::uint32_t payload;
  decode_cookie(cookie, general, op, payload);
  switch (op) {
    case TimerOp::kAgreeRoundDeadline:
      get_instance(general).on_timer(
          ctx, SsByzAgree::TimerKind::kRoundDeadline, payload);
      break;
    case TimerOp::kAgreePostReturn:
      get_instance(general).on_timer(ctx, SsByzAgree::TimerKind::kPostReturn,
                                     payload);
      break;
    case TimerOp::kIg3CheckL4:
    case TimerOp::kIg3CheckM4:
    case TimerOp::kIg3CheckN4:
      ig3_check(ctx, op, general.index);
      break;
  }
}

ProposeStatus SsByzNode::propose(Value m, std::uint32_t index,
                                 Payload payload) {
  if (ctx_ == nullptr) return ProposeStatus::kNotStarted;
  SSBFT_EXPECTS(index < params_.max_indices());
  NodeContext& ctx = *ctx_;
  const LocalTime now = ctx.local_now();
  GeneralPacing& pacing = pacing_[index];

  // Heal scrambled pacing state (future timestamps are "clearly wrong").
  if (pacing.last_initiation && *pacing.last_initiation > now) {
    pacing.last_initiation.reset();
  }
  if (pacing.backoff_until &&
      *pacing.backoff_until > now + params_.delta_reset()) {
    pacing.backoff_until.reset();
  }
  for (auto it = pacing.last_initiation_of_value.begin();
       it != pacing.last_initiation_of_value.end();) {
    if (it->second > now || it->second < now - 2 * params_.delta_v()) {
      it = pacing.last_initiation_of_value.erase(it);
    } else {
      ++it;
    }
  }

  // IG3: stay silent for ∆reset after a failed invocation.
  if (pacing.backoff_until && now < *pacing.backoff_until) {
    return ProposeStatus::kBackoff;
  }
  // IG1: ≥ ∆0 between any two initiations (of this instance index).
  if (pacing.last_initiation &&
      now - *pacing.last_initiation < params_.delta_0()) {
    return ProposeStatus::kTooSoon;
  }
  // IG2: ≥ ∆v between initiations with the same value (same index).
  if (const auto it = pacing.last_initiation_of_value.find(m);
      it != pacing.last_initiation_of_value.end() &&
      now - it->second < params_.delta_v()) {
    return ProposeStatus::kTooSoonSameValue;
  }

  // "The General, before initiating the primitive, removes from its memory
  // all previously received messages associated with any previous invocation
  // of the primitive with him as a General."
  const GeneralId self{ctx.id(), index};
  get_instance(self).initiator_accept().reset();

  pacing.last_initiation = now;
  pacing.last_initiation_of_value[m] = now;
  pacing.pending_invocation = now;

  // IG3 monitoring: its own L4/M4/N4 must complete within 2d/3d/4d of the
  // invocation. The General's own Initiator message takes up to d to loop
  // back (that arrival is "the invocation" at this node), so each check is
  // scheduled d later than the line's budget.
  const Duration d = params_.d();
  ctx.set_timer(now + 3 * d, encode_cookie(self, TimerOp::kIg3CheckL4, 0));
  ctx.set_timer(now + 4 * d, encode_cookie(self, TimerOp::kIg3CheckM4, 0));
  ctx.set_timer(now + 5 * d, encode_cookie(self, TimerOp::kIg3CheckN4, 0));

  // Q0: send (Initiator, G, m) to all — including itself; its own arrival
  // triggers Q1/Block K at this node like at every other node.
  WireMessage msg;
  msg.kind = MsgKind::kInitiator;
  msg.general = self;
  msg.value = m;
  msg.payload = std::move(payload);  // application body; opaque to agreement
  ctx.send_all(msg);
  ctx.log().logf(LogLevel::kInfo, ctx.id(), "propose m=%llu",
                 static_cast<unsigned long long>(m));
  return ProposeStatus::kSent;
}

void SsByzNode::ig3_check(NodeContext& ctx, TimerOp op, std::uint32_t index) {
  GeneralPacing& pacing = pacing_[index];
  if (!pacing.pending_invocation) return;
  const LocalTime invoked = *pacing.pending_invocation;
  auto& ia = get_instance(GeneralId{ctx.id(), index}).initiator_accept();

  const auto completed_since = [invoked](std::optional<LocalTime> t) {
    return t.has_value() && *t >= invoked;
  };
  // A later milestone subsumes an earlier one: a node can legitimately
  // reach N4 through Block N's ready-amplification without ever satisfying
  // M3's own-window test (its own approve loops back into the post-N4
  // ignore window). IG3 exists to detect *stalled* invocations — a
  // completed N4 is the opposite of a stall.
  const bool l4 = completed_since(ia.last_l4());
  const bool m4 = completed_since(ia.last_m4());
  const bool n4 = completed_since(ia.last_n4());

  bool ok = true;
  switch (op) {
    case TimerOp::kIg3CheckL4: ok = l4 || m4 || n4; break;
    case TimerOp::kIg3CheckM4: ok = m4 || n4; break;
    case TimerOp::kIg3CheckN4:
      ok = n4;
      if (ok) pacing.pending_invocation.reset();  // fully succeeded
      break;
    default: return;
  }
  if (!ok) {
    pacing.backoff_until = ctx.local_now() + params_.delta_reset();
    pacing.pending_invocation.reset();
    ctx.log().logf(LogLevel::kInfo, ctx.id(),
                   "IG3 failure detected; silent for ∆reset");
  }
}

void SsByzNode::clear_general_state() { pacing_.clear(); }

void SsByzNode::scramble(NodeContext& ctx, Rng& rng) {
  const LocalTime now = ctx.local_now();
  const Duration span = params_.delta_reset();
  // Scramble (or spawn) a handful of per-General instances, including
  // indexed ones (footnote 9 instances are as scramble-prone as any).
  for (NodeId g = 0; g < ctx.n(); ++g) {
    if (rng.next_bool(0.5)) get_instance(GeneralId{g}).scramble(ctx, rng);
    if (rng.next_bool(0.2)) {
      const auto index =
          std::uint32_t(rng.next_below(params_.max_indices()));
      get_instance(GeneralId{g, index}).scramble(ctx, rng);
    }
  }
  for (std::uint32_t index = 0; index < params_.max_indices(); ++index) {
    if (!rng.next_bool(index == 0 ? 0.9 : 0.2)) continue;
    GeneralPacing& pacing = pacing_[index];
    if (rng.next_bool(0.5)) {
      pacing.last_initiation =
          now + Duration{rng.next_in(-span.ns(), span.ns())};
    }
    if (rng.next_bool(0.3)) {
      pacing.backoff_until =
          now + Duration{rng.next_in(-span.ns(), span.ns())};
    }
    if (rng.next_bool(0.5)) {
      pacing.last_initiation_of_value[rng.next_below(4)] =
          now + Duration{rng.next_in(-span.ns(), span.ns())};
    }
    pacing.pending_invocation.reset();
  }
}

}  // namespace ssbft
