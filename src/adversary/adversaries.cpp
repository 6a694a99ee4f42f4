#include "adversary/adversaries.hpp"

namespace ssbft {

// ---------------------------------------------------------------- noise --

void RandomNoiseAdversary::on_start(NodeContext& ctx) {
  ctx.set_timer_after(period_, 0);
}

WireMessage RandomNoiseAdversary::random_message(NodeContext& ctx) {
  Rng& rng = ctx.rng();
  WireMessage msg;
  msg.kind = MsgKind(rng.next_below(std::uint64_t(MsgKind::kNumKinds)));
  msg.general = GeneralId{NodeId(rng.next_below(ctx.n()))};
  msg.value = rng.next_bool(0.5) ? rng.next_below(4) : rng.next_u64();
  msg.broadcaster = NodeId(rng.next_below(ctx.n()));
  msg.round = std::uint32_t(rng.next_below(2 * ctx.n() + 2));
  return msg;
}

void RandomNoiseAdversary::on_timer(NodeContext& ctx, std::uint64_t) {
  for (std::uint32_t i = 0; i < burst_; ++i) {
    ctx.send(NodeId(ctx.rng().next_below(ctx.n())), random_message(ctx));
  }
  ctx.set_timer_after(period_, 0);
}

// --------------------------------------------------------- equivocation --

void EquivocatingGeneral::on_start(NodeContext& ctx) {
  ctx.set_timer_after(start_delay_, 0);
}

void EquivocatingGeneral::on_timer(NodeContext& ctx, std::uint64_t) {
  const std::uint32_t split = split_ == 0 ? ctx.n() / 2 : split_;
  for (NodeId dest = 0; dest < ctx.n(); ++dest) {
    WireMessage msg;
    msg.kind = MsgKind::kInitiator;
    msg.general = GeneralId{ctx.id()};
    msg.value = dest < split ? v0_ : v1_;
    ctx.send(dest, msg);
  }
}

void EquivocatingGeneral::on_message(NodeContext& ctx,
                                     const WireMessage& msg) {
  // Keep both waves alive: echo back support/approve/ready for whatever
  // value the correct nodes are currently testing — to *everyone*, since a
  // split vote is more confusing than a consistent one at this stage.
  // send_all includes ourselves, so our own reflections come back: echoing
  // those again would feed an unbounded loop-back flood.
  if (msg.sender == ctx.id()) return;
  if (msg.kind == MsgKind::kSupport || msg.kind == MsgKind::kApprove ||
      msg.kind == MsgKind::kReady) {
    if (msg.general.node != ctx.id()) return;
    WireMessage reply = msg;
    ctx.send_all(reply);
  }
}

// ------------------------------------------------------------- stagger --

void StaggeredGeneral::on_start(NodeContext& ctx) {
  ctx.set_timer_after(start_delay_, 1);
}

void StaggeredGeneral::on_timer(NodeContext& ctx, std::uint64_t cookie) {
  if (cookie == 1) {
    // Schedule one Initiator per destination, spread over the span.
    for (NodeId dest = 0; dest < ctx.n(); ++dest) {
      const Duration offset{ctx.rng().next_in(0, span_.ns())};
      ctx.set_timer_after(offset, 2 + std::uint64_t(dest));
    }
    return;
  }
  const NodeId dest = NodeId(cookie - 2);
  if (dest >= ctx.n()) return;
  WireMessage msg;
  msg.kind = MsgKind::kInitiator;
  msg.general = GeneralId{ctx.id()};
  msg.value = v_;
  ctx.send(dest, msg);
}

// ----------------------------------------------------------------- spam --

void SpamGeneral::on_start(NodeContext& ctx) {
  ctx.set_timer_after(period_, 0);
}

void SpamGeneral::on_timer(NodeContext& ctx, std::uint64_t) {
  WireMessage msg;
  msg.kind = MsgKind::kInitiator;
  msg.general = GeneralId{ctx.id()};
  msg.value = next_value_++;
  ctx.send_all(msg);
  ctx.set_timer_after(period_, 0);
}

// --------------------------------------------------------------- replay --

void ReplayAdversary::on_message(NodeContext& ctx, const WireMessage& msg) {
  if (msg.sender == ctx.id()) return;  // don't re-store own replays
  if (store_.size() >= max_store_) return;
  store_.push_back(msg);
  ctx.set_timer_after(delay_, store_.size() - 1);
}

void ReplayAdversary::on_timer(NodeContext& ctx, std::uint64_t cookie) {
  if (cookie >= store_.size()) return;
  // Replay to everyone; the network will stamp our own id as sender.
  ctx.send_all(store_[cookie]);
}

// ---------------------------------------------------------- quorum fake --

void QuorumFaker::on_start(NodeContext& ctx) {
  ctx.set_timer_after(period_, 0);
}

void QuorumFaker::on_timer(NodeContext& ctx, std::uint64_t) {
  for (const MsgKind kind :
       {MsgKind::kInitiator, MsgKind::kSupport, MsgKind::kApprove,
        MsgKind::kReady}) {
    WireMessage msg;
    msg.kind = kind;
    msg.general = g_;
    msg.value = phantom_;
    for (NodeId victim : victims_) {
      if (victim < ctx.n()) ctx.send(victim, msg);
    }
  }
  ctx.set_timer_after(period_, 0);
}

}  // namespace ssbft
