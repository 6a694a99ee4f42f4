#include "core/msgd_broadcast.hpp"

#include <utility>

#include "util/assert.hpp"

namespace ssbft {

MsgdBroadcast::MsgdBroadcast(const Params& params, GeneralId general,
                             AcceptFn on_accept)
    : params_(params), general_(general), on_accept_(std::move(on_accept)) {}

LocalTime MsgdBroadcast::deadline(std::uint32_t phase_count) const {
  SSBFT_EXPECTS(tau_g_.has_value());
  return *tau_g_ + std::int64_t(phase_count) * params_.phi();
}

void MsgdBroadcast::set_anchor(NodeContext& ctx, LocalTime tau_g) {
  tau_g_ = tau_g;
  // Messages logged before the anchor existed become processable now — but
  // decay them FIRST. A dormant instance receives no broadcast traffic, so
  // the per-message cleanup never ran; without this purge, transient-fault
  // state planted arbitrarily long ago (stale echo quorums, accepted flags)
  // would replay the instant the anchor arrives and could smuggle a junk
  // value into Block S past ∆stb. (Found by the schedule explorer — see
  // test_explorer.cpp.)
  cleanup(ctx.local_now());
  evaluate_all(ctx);
}

void MsgdBroadcast::send(NodeContext& ctx, MsgKind kind, const Key& key) {
  WireMessage msg;
  msg.kind = kind;
  msg.general = general_;
  msg.value = key.m;
  msg.broadcaster = key.p;
  msg.round = key.k;
  ctx.send_all(msg);
}

void MsgdBroadcast::broadcast(NodeContext& ctx, Value m, std::uint32_t k) {
  // Line V: p sends (init, p, m, k) to all (it will receive its own copy and
  // proceed through W/X like everyone else).
  const Key key{ctx.id(), m, k};
  send(ctx, MsgKind::kBcastInit, key);
}

void MsgdBroadcast::on_message(NodeContext& ctx, const WireMessage& msg) {
  const LocalTime now = ctx.local_now();
  cleanup(now);

  const Key key{msg.broadcaster, msg.value, msg.round};
  auto& inst = insts_[key];
  inst.last_activity = now;
  bounds_.note(now);
  switch (msg.kind) {
    case MsgKind::kBcastInit:
      // Only the claimed broadcaster itself can authenticate an init; the
      // network guarantees the sender field (Def. 2.2).
      if (msg.sender == msg.broadcaster) inst.init_from_p = true;
      break;
    case MsgKind::kBcastEcho:
      inst.echo_senders.insert(msg.sender);
      break;
    case MsgKind::kBcastInitPrime:
      inst.init_prime_senders.insert(msg.sender);
      break;
    case MsgKind::kBcastEchoPrime:
      inst.echo_prime_senders.insert(msg.sender);
      break;
    default:
      SSBFT_ASSERT(false);
  }

  // "Nodes execute the blocks only when τG is defined."
  if (tau_g_.has_value()) evaluate(ctx, key, inst);
}

void MsgdBroadcast::evaluate_all(NodeContext& ctx) {
  if (!tau_g_.has_value()) return;
  for (auto& [key, inst] : insts_) evaluate(ctx, key, inst);
}

void MsgdBroadcast::evaluate(NodeContext& ctx, const Key& key,
                             Instance& inst) {
  const LocalTime now = ctx.local_now();
  const std::uint32_t k = key.k;

  // --- Block W: τq ≤ τG + 2k·Φ -----------------------------------------
  if (now <= deadline(2 * k) && inst.init_from_p && !inst.echo_sent) {
    inst.echo_sent = true;
    send(ctx, MsgKind::kBcastEcho, key);
    // Our own echo also counts toward the quorums below once it loops back
    // through the network.
  }

  // --- Block X: τq ≤ τG + (2k+1)·Φ --------------------------------------
  if (now <= deadline(2 * k + 1)) {
    if (inst.echo_senders.size() >= params_.q_low() &&
        !inst.init_prime_sent) {
      inst.init_prime_sent = true;
      send(ctx, MsgKind::kBcastInitPrime, key);
    }
    if (inst.echo_senders.size() >= params_.q_high() && !inst.accepted) {
      accept(ctx, key, inst);  // X5
    }
  }

  // --- Block Y: τq ≤ τG + (2k+2)·Φ --------------------------------------
  if (now <= deadline(2 * k + 2)) {
    if (inst.init_prime_senders.size() >= params_.q_low()) {
      broadcasters_.insert(key.p);  // Y3 (TPS-4 detection)
    }
    if (inst.init_prime_senders.size() >= params_.q_high() &&
        !inst.echo_prime_sent) {
      inst.echo_prime_sent = true;
      send(ctx, MsgKind::kBcastEchoPrime, key);  // Y5
    }
  }

  // --- Block Z: at any time ---------------------------------------------
  if (inst.echo_prime_senders.size() >= params_.q_low() &&
      !inst.echo_prime_sent) {
    inst.echo_prime_sent = true;
    send(ctx, MsgKind::kBcastEchoPrime, key);  // Z3
  }
  if (inst.echo_prime_senders.size() >= params_.q_high() &&
      !inst.accepted) {
    accept(ctx, key, inst);  // Z5
  }
}

void MsgdBroadcast::accept(NodeContext& ctx, const Key& key, Instance& inst) {
  inst.accepted = true;
  ctx.log().logf(LogLevel::kDebug, ctx.id(),
                 "bcast-accept (G=%u, p=%u, m=%llu, k=%u)", general_.node,
                 key.p, static_cast<unsigned long long>(key.m), key.k);
  on_accept_(key.p, key.m, key.k);
}

bool MsgdBroadcast::has_accepted(NodeId p, Value m, std::uint32_t k) const {
  const auto it = insts_.find(Key{p, m, k});
  return it != insts_.end() && it->second.accepted;
}

void MsgdBroadcast::cleanup(LocalTime now) {
  if (!params_.cleanup_enabled()) return;  // ablation A2
  // Fig. 3 cleanup: remove anything older than (2f+3)·Φ (future-stamped
  // activity can only exist after a transient fault — drop it too).
  const Duration keep = params_.bcast_cleanup();
  if (bounds_.within(now, keep)) return;  // nothing stale or future-stamped
  bounds_.reset();
  for (auto it = insts_.begin(); it != insts_.end();) {
    if (it->second.last_activity < now - keep ||
        it->second.last_activity > now) {
      it = insts_.erase(it);
    } else {
      bounds_.note(it->second.last_activity);
      ++it;
    }
  }
}

void MsgdBroadcast::reset() {
  tau_g_.reset();
  insts_.clear();
  bounds_.reset();
  broadcasters_.clear();
}

void MsgdBroadcast::scramble(NodeContext& ctx, Rng& rng) {
  const LocalTime now = ctx.local_now();
  reset();
  if (rng.next_bool(0.5)) {
    tau_g_ = now + Duration{rng.next_in(-params_.delta_agr().ns(),
                                        params_.delta_agr().ns())};
  }
  const std::uint32_t count = std::uint32_t(rng.next_below(6));
  for (std::uint32_t i = 0; i < count; ++i) {
    Key key{NodeId(rng.next_below(ctx.n())), rng.next_below(4),
            std::uint32_t(rng.next_below(2 * params_.f() + 2))};
    auto& inst = insts_[key];
    inst.last_activity =
        now + Duration{rng.next_in(-params_.bcast_cleanup().ns(), 0)};
    bounds_.note(inst.last_activity);
    inst.init_from_p = rng.next_bool(0.5);
    inst.accepted = rng.next_bool(0.3);
    const auto senders = rng.next_below(ctx.n() + 1);
    for (std::uint64_t s = 0; s < senders; ++s) {
      inst.echo_senders.insert(NodeId(rng.next_below(ctx.n())));
      if (rng.next_bool(0.5)) {
        inst.echo_prime_senders.insert(NodeId(rng.next_below(ctx.n())));
      }
    }
    if (rng.next_bool(0.3)) {
      broadcasters_.insert(NodeId(rng.next_below(ctx.n())));
    }
  }
}

}  // namespace ssbft
