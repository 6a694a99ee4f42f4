#include "core/initiator_accept.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace ssbft {

namespace {

// Candidate values under per-value evaluation = values with any logged
// activity plus values with standing state.
template <class Map>
void add_keys(std::vector<Value>& out, const Map& map) {
  for (const auto& [value, unused] : map) {
    if (std::find(out.begin(), out.end(), value) == out.end()) {
      out.push_back(value);
    }
  }
}

}  // namespace

InitiatorAccept::InitiatorAccept(const Params& params, GeneralId general,
                                 IAcceptFn on_accept)
    : params_(params), general_(general), on_accept_(std::move(on_accept)) {}

std::optional<LocalTime> InitiatorAccept::i_value_of(Value m) const {
  const auto it = i_values_.find(m);
  if (it == i_values_.end()) return std::nullopt;
  return it->second;
}

std::vector<Value> InitiatorAccept::i_value_keys() const {
  std::vector<Value> keys;
  keys.reserve(i_values_.size());
  for (const auto& [value, unused] : i_values_) keys.push_back(value);
  return keys;
}

bool InitiatorAccept::k1_would_pass(LocalTime now, Value m,
                                    std::string* why) const {
  const auto fail = [why](const char* reason) {
    if (why) *why = reason;
    return false;
  };
  for (const auto& [value, unused] : i_values_) {
    if (value != m) return fail("i_values holds another value");
  }
  if (!last_g_.is_bottom()) return fail("last(G) set");
  if (last_support_sent_ && *last_support_sent_ >= now - params_.d() &&
      *last_support_sent_ <= now) {
    return fail("support sent within last d");
  }
  if (const auto it = last_gm_.find(m);
      it != last_gm_.end() && it->second.value_at(now - params_.d())) {
    return fail("last(G,m) set d ago");
  }
  if (const auto it = ignore_until_.find(m);
      it != ignore_until_.end() && now < it->second) {
    return fail("inside N4 ignore window");
  }
  if (why) *why = "ok";
  return true;
}

bool InitiatorAccept::ignoring(Value m, LocalTime now) const {
  const auto it = ignore_until_.find(m);
  return it != ignore_until_.end() && now < it->second;
}

void InitiatorAccept::touch(Value m, LocalTime now) {
  last_gm_[m].set(now, now);
}

bool InitiatorAccept::rate_limited_send(NodeContext& ctx, MsgKind kind,
                                        Value m) {
  // The paper allows repeated sends and explicitly ignores the optimization
  // of suppressing them (§4). We cap each (kind, value) at one send per d;
  // receivers count distinct senders, so duplicates carry no information.
  const LocalTime now = ctx.local_now();
  auto& last = last_sent_[{std::uint8_t(kind), m}];
  if (last != LocalTime{} && now - last < params_.d() && last <= now) {
    return false;
  }
  last = now;
  WireMessage msg;
  msg.kind = kind;
  msg.general = general_;
  msg.value = m;
  ctx.send_all(msg);
  return true;
}

void InitiatorAccept::invoke(NodeContext& ctx, Value m) {
  const LocalTime now = ctx.local_now();
  cleanup(now);

  // --- Block K ---------------------------------------------------------
  // K1: every test guards the General's compliance with the Sending
  // Validity Criteria, judged on this node's own (possibly stale) state.
  const bool other_values_bottom = std::all_of(
      i_values_.begin(), i_values_.end(),
      [m](const auto& kv) { return kv.first == m; });
  const bool last_g_bottom = last_g_.is_bottom();
  const bool no_recent_support =
      !last_support_sent_.has_value() ||
      *last_support_sent_ < now - params_.d() || *last_support_sent_ > now;
  // lastq(G,m) = ⊥ at τq − d: the data structure must reflect its state d
  // time units in the past (Fig. 2 commentary).
  const bool last_gm_bottom_d_ago = [&] {
    const auto it = last_gm_.find(m);
    return it == last_gm_.end() ||
           !it->second.value_at(now - params_.d()).has_value();
  }();

  if (other_values_bottom && last_g_bottom && no_recent_support &&
      last_gm_bottom_d_ago && !ignoring(m, now)) {
    // K2: record a time prior to the invocation (the General's message took
    // up to d to arrive), send support, and mark the send.
    auto [it, inserted] = i_values_.try_emplace(m, now - params_.d());
    if (!inserted) it->second = std::max(it->second, now - params_.d());
    last_support_sent_ = now;
    rate_limited_send(ctx, MsgKind::kSupport, m);
    touch(m, now);
  }

  evaluate(ctx);
}

void InitiatorAccept::on_message(NodeContext& ctx, const WireMessage& msg) {
  SSBFT_EXPECTS(msg.kind == MsgKind::kSupport ||
                msg.kind == MsgKind::kApprove || msg.kind == MsgKind::kReady);
  const LocalTime now = ctx.local_now();
  cleanup(now);
  if (ignoring(msg.value, now)) return;  // N4's 3d ignore window
  log_.note(ArrivalKey{msg.kind, msg.value, kNoNode, 0}, msg.sender, now);
  evaluate(ctx);
}

void InitiatorAccept::evaluate(NodeContext& ctx) {
  const LocalTime now = ctx.local_now();
  candidates_.clear();
  log_.append_values(MsgKind::kSupport, candidates_);
  log_.append_values(MsgKind::kApprove, candidates_);
  log_.append_values(MsgKind::kReady, candidates_);
  add_keys(candidates_, ready_since_);
  for (Value m : candidates_) {
    if (!ignoring(m, now)) evaluate_value(ctx, m, now);
  }
}

void InitiatorAccept::evaluate_value(NodeContext& ctx, Value m,
                                     LocalTime now) {
  const Duration d = params_.d();
  // One lookup per table: nothing below modifies the log before N4's
  // erase_if, which follows the last query.
  const SenderTable* support =
      log_.find(ArrivalKey{MsgKind::kSupport, m, kNoNode, 0});
  const SenderTable* approve =
      log_.find(ArrivalKey{MsgKind::kApprove, m, kNoNode, 0});
  const SenderTable* ready =
      log_.find(ArrivalKey{MsgKind::kReady, m, kNoNode, 0});

  // --- Block L ---------------------------------------------------------
  // L1/L2: ≥ n−2f distinct supports within the shortest window α ≤ 4d;
  // record a time prior to the (hypothetical) invocation event.
  if (const auto alpha = log_.shortest_window(support, params_.q_low(),
                                              now, 4 * d)) {
    const LocalTime recording = now - *alpha - 2 * d;
    auto [it, inserted] = i_values_.try_emplace(m, recording);
    if (!inserted) it->second = std::max(it->second, recording);
    touch(m, now);
  }
  // L3/L4: ≥ n−f distinct supports within [τq−2d, τq] ⇒ approve.
  // The timestamp records that the line's condition held (the General's IG3
  // monitoring watches it); the duplicate-send suppression is orthogonal.
  if (ArrivalLog::distinct_in_window(support, now - 2 * d, now) >=
      params_.q_high()) {
    rate_limited_send(ctx, MsgKind::kApprove, m);
    last_l4_ = now;
    touch(m, now);
  }

  // --- Block M ---------------------------------------------------------
  // M1/M2: ≥ n−2f approves within [τq−5d, τq] ⇒ ready flag.
  if (ArrivalLog::distinct_in_window(approve, now - 5 * d, now) >=
      params_.q_low()) {
    ready_since_[m] = now;
    touch(m, now);
  }
  // M3/M4: ≥ n−f approves within [τq−3d, τq] ⇒ send ready. As with L4, the
  // timestamp records the condition holding — the ready may already be on
  // the wire via N2's amplification, which satisfies the same obligation.
  if (ArrivalLog::distinct_in_window(approve, now - 3 * d, now) >=
      params_.q_high()) {
    rate_limited_send(ctx, MsgKind::kReady, m);
    last_m4_ = now;
    touch(m, now);
  }

  // --- Block N (untimed: spread-out nodes must be able to collect) ------
  const bool is_ready = ready_since_.contains(m);
  const std::uint32_t readies = ArrivalLog::distinct_total(ready);
  if (is_ready && readies >= params_.q_low()) {
    // N2: amplify.
    rate_limited_send(ctx, MsgKind::kReady, m);
    touch(m, now);
  }
  if (is_ready && readies >= params_.q_high()) {
    // N4: fix τG, clear the instance's IA state, I-accept.
    LocalTime tau_g;
    if (const auto it = i_values_.find(m); it != i_values_.end()) {
      tau_g = it->second;
    } else {
      // Only reachable from a corrupted state (Lemma 2 rules it out under
      // stability): an arbitrary-but-sane anchor keeps the node going; the
      // agreement layer's R1/U1 checks will discard it.
      tau_g = now;
      ++accepts_without_anchor_;
    }
    i_values_.clear();
    log_.erase_if([m](const ArrivalKey& key) { return key.value == m; });
    ignore_until_[m] = now + 3 * d;
    touch(m, now);
    last_g_.set(now, now);
    last_n4_ = now;
    ctx.log().logf(LogLevel::kDebug, ctx.id(),
                   "I-accept (G=%u, m=%llu, tauG=%lld)", general_.node,
                   static_cast<unsigned long long>(m),
                   static_cast<long long>(tau_g.ns()));
    on_accept_(m, tau_g);
  }
}

void InitiatorAccept::cleanup(LocalTime now) {
  if (!params_.cleanup_enabled()) return;  // ablation A2
  const Duration d = params_.d();
  const Duration rmv = params_.delta_rmv();

  // Remove any value or message older than ∆rmv (or stamped in the future).
  log_.decay(now, rmv);
  for (auto it = i_values_.begin(); it != i_values_.end();) {
    if (it->second > now || it->second < now - rmv) {
      it = i_values_.erase(it);
    } else {
      ++it;
    }
  }
  // ready flags decay after ∆rmv (proof of Claim 1).
  for (auto it = ready_since_.begin(); it != ready_since_.end();) {
    if (it->second > now || it->second < now - rmv) {
      it = ready_since_.erase(it);
    } else {
      ++it;
    }
  }
  // lastq(G): expire after ∆0 − 6d. lastq(G,m): after 2∆rmv + 9d.
  last_g_.cleanup(now, params_.delta_0() - 6 * d, 2 * rmv + 10 * d);
  for (auto& [value, var] : last_gm_) {
    var.cleanup(now, 2 * rmv + 9 * d, 2 * rmv + 10 * d);
  }
  for (auto it = last_gm_.begin(); it != last_gm_.end();) {
    if (it->second.is_bottom() && !it->second.value_at(now - d).has_value()) {
      it = last_gm_.erase(it);
    } else {
      ++it;
    }
  }
  // Bookkeeping that only backs short windows.
  if (last_support_sent_ &&
      (*last_support_sent_ > now || *last_support_sent_ < now - 2 * d)) {
    last_support_sent_.reset();
  }
  for (auto it = ignore_until_.begin(); it != ignore_until_.end();) {
    if (it->second <= now || it->second > now + 4 * d) {
      it = ignore_until_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = last_sent_.begin(); it != last_sent_.end();) {
    if (it->second > now || it->second < now - 2 * d) {
      it = last_sent_.erase(it);
    } else {
      ++it;
    }
  }
  if (last_l4_ && (*last_l4_ > now || *last_l4_ < now - rmv)) last_l4_.reset();
  if (last_m4_ && (*last_m4_ > now || *last_m4_ < now - rmv)) last_m4_.reset();
  if (last_n4_ && (*last_n4_ > now || *last_n4_ < now - rmv)) last_n4_.reset();
}

void InitiatorAccept::reset() {
  log_.clear();
  i_values_.clear();
  ready_since_.clear();
  ignore_until_.clear();
  last_support_sent_.reset();
  last_sent_.clear();
  // Survivors: lastq(G)/lastq(G,m) pace the General's re-invocations
  // (∆0 / ∆v) across executions, and the L4/M4/N4 timestamps are the
  // General's IG3 bookkeeping (it must remember that its last invocation
  // *succeeded* even after the post-return primitive reset). All of them
  // still decay through cleanup().
}

void InitiatorAccept::scramble(NodeContext& ctx, Rng& rng) {
  const LocalTime now = ctx.local_now();
  const Duration span = params_.delta_rmv();
  reset();
  log_.scramble(rng, now, span, ctx.n(), 48);
  const std::uint32_t extra = std::uint32_t(rng.next_below(3));
  for (std::uint32_t i = 0; i < extra; ++i) {
    const Value m = rng.next_below(4);
    i_values_[m] = now + Duration{rng.next_in(-span.ns(), span.ns())};
    if (rng.next_bool(0.5)) {
      ready_since_[m] = now + Duration{rng.next_in(-span.ns(), span.ns())};
    }
  }
  last_g_.scramble(rng, now, span);
  last_gm_[rng.next_below(4)].scramble(rng, now, span);
}

}  // namespace ssbft
