#include "core/ss_byz_agree.hpp"

#include <utility>
#include <vector>

#include "harness/trace.hpp"
#include "util/assert.hpp"

namespace ssbft {

SsByzAgree::SsByzAgree(const Params& params, GeneralId general,
                       ReturnFn on_return)
    : params_(params),
      general_(general),
      on_return_(std::move(on_return)),
      ia_(params, general,
          [this](Value m, LocalTime tau_g) { on_i_accept(m, tau_g); }),
      bc_(params, general, [this](NodeId p, Value m, std::uint32_t k) {
        on_bcast_accept(p, m, k);
      }) {}

void SsByzAgree::invoke(NodeContext& ctx, Value m) {
  ctx_ = &ctx;
  cleanup(ctx.local_now());
  // Q1: invoke Initiator-Accept. (Q0, the General's own send, lives in the
  // node layer — the General also receives its own Initiator message and
  // lands here like everyone else.)
  ia_.invoke(ctx, m);
  ctx_ = nullptr;
}

void SsByzAgree::on_message(NodeContext& ctx, const WireMessage& msg) {
  ctx_ = &ctx;
  cleanup(ctx.local_now());
  check_deadline_state(ctx);
  switch (msg.kind) {
    case MsgKind::kInitiator:
      // Q1 — only the authenticated General can invoke Block K on its own
      // behalf (the network guarantees msg.sender, Def. 2.2); a Byzantine
      // third party must not be able to impersonate an initiation.
      if (msg.sender == general_.node) ia_.invoke(ctx, msg.value);
      break;
    case MsgKind::kSupport:
    case MsgKind::kApprove:
    case MsgKind::kReady:
      ia_.on_message(ctx, msg);
      break;
    case MsgKind::kBcastInit:
    case MsgKind::kBcastEcho:
    case MsgKind::kBcastInitPrime:
    case MsgKind::kBcastEchoPrime:
      bc_.on_message(ctx, msg);
      break;
    default:
      break;  // not ours (e.g. baseline traffic on a mixed network)
  }
  ctx_ = nullptr;
}

void SsByzAgree::on_i_accept(Value m, LocalTime tau_g) {
  SSBFT_ASSERT(ctx_ != nullptr);
  NodeContext& ctx = *ctx_;
  if (returned_) return;  // stopped; still serving primitives for 3d

  const LocalTime now = ctx.local_now();
  tau_g_ = tau_g;
  ia_value_ = m;
  // Round span: anchored (I-accept fixed τG) → return. Async, keyed by
  // (node, General): one node may serve many Generals' instances at once.
  trace::async_begin(TraceLayer::kProtocol, TraceName::kAgreeRound,
                     (std::uint64_t(ctx.id()) << 32) | general_.node, ctx.id(),
                     std::int64_t(m));
  // Decay stale accepts_ before anchoring: scrambled accept records from a
  // transient fault must not feed Block S when the replay below re-enters
  // check_block_s (the per-message cleanup never ran if this instance was
  // dormant since the fault).
  cleanup(now);
  // Anchoring replays broadcasts that were buffered while τG was unknown —
  // which can *synchronously* complete an S-path decision (via the accept
  // callback re-entering check_block_s). Re-check before running Block R.
  bc_.set_anchor(ctx, tau_g);
  if (returned_) return;

  // Schedule the T1 checks at τG+(2r+1)Φ (r = 2..f; r ≤ 1 is vacuous) and
  // the U1 hard deadline at τG+(2f+1)Φ, payload kU1Payload. A nanosecond
  // past the bound makes "τq >" true. The previous invocation's checks are
  // cancelled first (superseded anchor); handlers still re-validate against
  // the *current* τG, so any timer that escapes cancellation — a scramble
  // can lose handles — stays harmless.
  cancel_deadlines();
  if (request_timer_) {
    for (std::uint32_t r = 2; r <= params_.f(); ++r) {
      const LocalTime when =
          tau_g + std::int64_t(2 * r + 1) * params_.phi() + Duration{1};
      arm_deadline(when, r);
    }
    const LocalTime hard =
        tau_g + std::int64_t(2 * params_.f() + 1) * params_.phi() + Duration{1};
    arm_deadline(hard, kU1Payload);
  }

  // Block R: a fresh I-accept lets the node adopt and relay immediately.
  //
  // DEVIATION FROM FIG. 1 (documented in DESIGN.md): the paper writes
  // τq − τG ≤ 4d, but its own IA-1D only guarantees rt(τq) ≤ t0 + 4d and
  // rt(τG) ≥ t0 − d, i.e. a gap of up to 5d. Under per-hop delay jitter the
  // 4d test genuinely fails at some correct nodes even for a correct
  // General; if the *only* node that passes is the General itself, its
  // round-1 relay is excluded by S1's p_i ≠ G requirement and the remaining
  // correct nodes abort — breaking Agreement. 5d is what IA-1D supports,
  // and it keeps every downstream proof step intact (the R-path decision
  // still happens before τG + Φ = 8d, which is all Lemma 8's r = 0 case
  // uses). Params::r1_window() defaults to 5d; bench_ablation measures the
  // literal 4d variant.
  if (now - tau_g <= params_.r1_window()) {
    bc_.broadcast(ctx, m, 1);  // R3: msgd-broadcast(q, ⟨G,m⟩, 1)
    do_return(ctx, m);         // R4
    return;
  }

  // Otherwise fall through to S/T/U: maybe the relayed chain arrives.
  check_block_s(ctx);
}

void SsByzAgree::on_bcast_accept(NodeId p, Value m, std::uint32_t k) {
  SSBFT_ASSERT(ctx_ != nullptr);
  NodeContext& ctx = *ctx_;
  auto& rec = accepts_[m];
  rec.rounds[k].insert(p);
  rec.last_update = ctx.local_now();
  accept_bounds_.note(rec.last_update);
  trace::instant(TraceLayer::kProtocol, TraceName::kQuorumProgress, ctx.id(),
                 std::int64_t(k));
  if (!returned_ && tau_g_.has_value()) check_block_s(ctx);
}

std::uint32_t SsByzAgree::chain_length(const RoundTable& rounds,
                                       std::uint32_t max_r) const {
  // Rounds 1..r must each contribute a *distinct* broadcaster p_i ≠ G
  // (S1's "∀i,j: p_i ≠ p_j ≠ G"). Greedy fails on adversarial overlap, so
  // run augmenting-path bipartite matching round→broadcaster; tiny sizes
  // (r ≤ f+1) make this cheap.
  std::vector<std::vector<NodeId>> cand;  // per round 1..max_r
  for (std::uint32_t r = 1; r <= max_r; ++r) {
    const auto it = rounds.find(r);
    if (it == rounds.end()) break;
    std::vector<NodeId> nodes;
    it->second.for_each([&](NodeId p) {
      if (p != general_.node) nodes.push_back(p);
    });
    if (nodes.empty()) break;
    cand.push_back(std::move(nodes));
  }

  FlatMap<NodeId, std::uint32_t> matched_to;  // broadcaster → round index
  std::uint32_t matched_rounds = 0;
  for (std::uint32_t round = 0; round < cand.size(); ++round) {
    NodeSet visited;
    // Try to find an augmenting path for `round`.
    std::function<bool(std::uint32_t)> augment = [&](std::uint32_t r) -> bool {
      for (NodeId p : cand[r]) {
        if (visited.contains(p)) continue;
        visited.insert(p);
        const auto it = matched_to.find(p);
        if (it == matched_to.end()) {
          matched_to[p] = r;
          return true;
        }
        // Recursing can insert into matched_to (invalidating `it`), so
        // take the displaced round out first and re-probe to reassign.
        const std::uint32_t displaced = it->second;
        if (augment(displaced)) {
          matched_to[p] = r;
          return true;
        }
      }
      return false;
    };
    if (augment(round)) {
      ++matched_rounds;
    } else {
      break;  // rounds are a prefix: chain stops at the first unmatchable
    }
  }
  return matched_rounds;
}

void SsByzAgree::check_block_s(NodeContext& ctx) {
  SSBFT_ASSERT(tau_g_.has_value());
  const LocalTime now = ctx.local_now();

  for (auto& [value, rec] : accepts_) {
    const std::uint32_t r = chain_length(rec.rounds, params_.f() + 1);
    if (r == 0) continue;
    // S1 deadline: decision at chain length r is valid while
    // τq ≤ τG + (2r+1)·Φ.
    if (now <= *tau_g_ + std::int64_t(2 * r + 1) * params_.phi()) {
      bc_.broadcast(ctx, value, r + 1);  // S3
      do_return(ctx, value);             // S4
      return;
    }
  }
}

void SsByzAgree::on_timer(NodeContext& ctx, TimerKind kind,
                          std::uint32_t payload) {
  ctx_ = &ctx;
  cleanup(ctx.local_now());
  switch (kind) {
    case TimerKind::kRoundDeadline: {
      if (returned_ || !tau_g_.has_value()) break;
      const LocalTime now = ctx.local_now();
      if (payload == kU1Payload) {
        // U1: hard deadline (2f+1)·Φ — abort unconditionally (stale timers
        // from a superseded τG are filtered by the deadline re-check).
        if (now > *tau_g_ + std::int64_t(2 * params_.f() + 1) * params_.phi()) {
          do_return(ctx, kBottom);
        }
        break;
      }
      // T1: past τG+(2r+1)Φ the broadcaster set must have ≥ r−1 members.
      const std::uint32_t r = payload;
      if (now > *tau_g_ + std::int64_t(2 * r + 1) * params_.phi() &&
          bc_.broadcasters().size() + 1 < r) {  // |b| < r−1, unsigned-safe
        do_return(ctx, kBottom);
      }
      break;
    }
    case TimerKind::kPostReturn:
      // 3d after returning: reset the primitives and become ready for the
      // General's next invocation.
      ia_.reset();
      bc_.reset();
      tau_g_.reset();
      ia_value_.reset();
      accepts_.clear();
      accept_bounds_.reset();
      returned_ = false;
      break;
  }
  ctx_ = nullptr;
}

void SsByzAgree::check_deadline_state(NodeContext& ctx) {
  // U1 in Fig. 1 is a *condition*, continuously evaluated — not a one-shot
  // timer. After a transient fault this instance may hold a τG for which no
  // deadline timer was ever scheduled; evaluating the condition on every
  // event (and healing future-stamped anchors, which are "clearly wrong")
  // restores termination from arbitrary states.
  if (!tau_g_.has_value() || returned_) return;
  const LocalTime now = ctx.local_now();
  if (*tau_g_ > now) {
    tau_g_.reset();
    ia_value_.reset();
    return;
  }
  if (now > *tau_g_ + params_.delta_agr()) do_return(ctx, kBottom);
}

void SsByzAgree::arm_deadline(LocalTime when, std::uint32_t payload) {
  deadline_timers_.push_back(
      request_timer_(when, TimerKind::kRoundDeadline, payload));
}

void SsByzAgree::cancel_deadlines() {
  if (cancel_timer_) {
    for (const TimerHandle handle : deadline_timers_) cancel_timer_(handle);
  }
  deadline_timers_.clear();
}

void SsByzAgree::do_return(NodeContext& ctx, Value value) {
  SSBFT_ASSERT(!returned_);
  returned_ = true;
  // A returned instance never evaluates T1/U1 again: retire the checks
  // instead of dispatching them as no-ops. (This is the dense-timer hot
  // path — every decided execution used to leave up to f stale deadline
  // fires in the queue.)
  cancel_deadlines();
  AgreeResult result;
  result.general = general_;
  result.value = value;
  result.tau_g = tau_g_.value_or(LocalTime{});
  result.returned_at = ctx.local_now();
  last_result_ = result;
  trace::async_end(TraceLayer::kProtocol, TraceName::kAgreeRound,
                   (std::uint64_t(ctx.id()) << 32) | general_.node, ctx.id(),
                   std::int64_t(value));
  ctx.log().logf(LogLevel::kDebug, ctx.id(),
                 "return (G=%u, value=%llu, decided=%d)", general_.node,
                 static_cast<unsigned long long>(value),
                 int(result.decided()));
  if (request_timer_) {
    request_timer_(ctx.local_now() + 3 * params_.d(), TimerKind::kPostReturn,
                   0);
  }
  on_return_(result);
}

void SsByzAgree::cleanup(LocalTime now) {
  // Fig. 1 cleanup: erase values/messages older than (2f+1)Φ + 3d.
  const Duration keep = params_.agree_cleanup();
  if (accept_bounds_.within(now, keep)) return;  // nothing stale or future
  accept_bounds_.reset();
  for (auto it = accepts_.begin(); it != accepts_.end();) {
    if (it->second.last_update < now - keep || it->second.last_update > now) {
      it = accepts_.erase(it);
    } else {
      accept_bounds_.note(it->second.last_update);
      ++it;
    }
  }
}

void SsByzAgree::reset() {
  cancel_deadlines();
  ia_.reset();
  bc_.reset();
  tau_g_.reset();
  ia_value_.reset();
  accepts_.clear();
  accept_bounds_.reset();
  returned_ = false;
  last_result_.reset();
}

void SsByzAgree::scramble(NodeContext& ctx, Rng& rng) {
  const LocalTime now = ctx.local_now();
  // A transient fault erases the node's memory of its handles without
  // cancelling anything in flight: drop them (the stale timers fire and
  // are filtered by the handlers' re-validation, as before the fault).
  deadline_timers_.clear();
  reset();
  ctx_ = &ctx;
  ia_.scramble(ctx, rng);
  bc_.scramble(ctx, rng);
  if (rng.next_bool(0.5)) {
    tau_g_ = now + Duration{rng.next_in(-params_.delta_agr().ns(),
                                        params_.delta_agr().ns())};
    ia_value_ = rng.next_below(4);
    // The node's main loop keeps polling its clock against U1 even from an
    // arbitrary state; re-arming the deadline models exactly that.
    if (request_timer_) {
      arm_deadline(*tau_g_ + params_.delta_agr() + Duration{1}, kU1Payload);
    }
  }
  const std::uint32_t count = std::uint32_t(rng.next_below(4));
  for (std::uint32_t i = 0; i < count; ++i) {
    auto& rec = accepts_[rng.next_below(4)];
    rec.last_update = now - Duration{rng.next_in(0, params_.agree_cleanup().ns())};
    accept_bounds_.note(rec.last_update);
    rec.rounds[std::uint32_t(rng.next_below(params_.f() + 2)) + 1].insert(
        NodeId(rng.next_below(ctx.n())));
  }
  // A scrambled node may even believe it already returned.
  returned_ = rng.next_bool(0.25);
  if (returned_ && request_timer_) {
    // Ensure the stuck "returned" state heals: schedule the post-return
    // reset as the protocol would have.
    request_timer_(now + 3 * params_.d(), TimerKind::kPostReturn, 0);
  }
  ctx_ = nullptr;
}

}  // namespace ssbft
