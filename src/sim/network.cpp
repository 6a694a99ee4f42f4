#include "sim/network.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "harness/trace.hpp"
#include "util/assert.hpp"

namespace ssbft {

std::ostream& operator<<(std::ostream& os, const NetworkStats& stats) {
  os << "{sent=" << stats.sent << " delivered=" << stats.delivered
     << " dropped=" << stats.dropped << " duplicated=" << stats.duplicated
     << " corrupted=" << stats.corrupted << " forged=" << stats.forged
     << " auth_rejected=" << stats.auth_rejected
     << " payload_bytes=" << stats.payload_bytes
     << " topology_hops=" << stats.topology_hops
     << " fanout_msgs=" << stats.fanout_msgs << " per_kind={";
  const char* sep = "";
  for (std::size_t k = 0; k < stats.per_kind.size(); ++k) {
    if (stats.per_kind[k] == 0) continue;
    os << sep << to_string(MsgKind(k)) << '=' << stats.per_kind[k];
    sep = " ";
  }
  return os << "}}";
}

Network::Network(NodeHost& host, std::vector<NodeState>& nodes,
                 DelayModel link_delay, DelayModel proc_delay,
                 ChaosConfig chaos, std::uint64_t seed, AuthKind auth)
    : host_(host),
      nodes_(nodes),
      n_(std::uint32_t(nodes.size())),
      link_delay_(link_delay),
      proc_delay_(proc_delay),
      chaos_(chaos),
      auth_(auth, seed) {
  SSBFT_EXPECTS(n_ > 0);
  SSBFT_EXPECTS(chaos_.max_delay >= Duration::zero());
  if (chaos_.max_delay == Duration::zero()) {
    chaos_.max_delay = link_delay_.max * 20;
  }
  // A zero-width link-delay model (link_delay_.max == 0) would degenerate
  // the fallback to rng.next_in(0, 0) — instantaneous, undroppable-window
  // "chaos". Clamp to a positive floor so a chaotic network always has a
  // real delay envelope.
  chaos_.max_delay = std::max(chaos_.max_delay, chaos_delay_floor());
}

void Network::send(NodeId from, NodeId dest, WireMessage msg) {
  // Unicast copies are always direct — a behavior echoing back a received
  // relay copy must not re-disseminate it.
  stamp(from, msg, kRouteDirect);
  admit(counters(), host_.now(), from, dest, msg);
}

void Network::stamp(NodeId from, WireMessage& msg,
                    std::uint8_t route_mark) const {
  msg.sender = from;        // authenticated identity (Def. 2.2)
  msg.route = route_mark;   // dissemination duty; outside the signed fields
  auth_.sign(msg);          // tag at origin (binds the sender)
}

void Network::admit(NetworkStats& stats, RealTime now, NodeId from,
                    NodeId dest, const WireMessage& msg) {
  SSBFT_EXPECTS(dest < n_);
  ++stats.sent;
  stats.per_kind[std::size_t(msg.kind)]++;
  stats.payload_bytes += msg.payload.size();
  tap(TapEvent::Kind::kSent, from, dest, msg);
  route(now, from, dest, msg);
}

void Network::send_all(NodeId from, const WireMessage& msg) {
  // The tag binds the sender and the content, never the destination or
  // the route marker, so one stamped message serves every copy; each copy
  // is then counted, tapped, delayed and keyed per destination — the
  // order n unicast sends would produce, so seeded runs are bit-identical
  // to them. A pooled payload body is shared by reference throughout.
  WireMessage stamped = msg;
  stamp(from, stamped, kRouteDirect);
  NetworkStats& stats = counters();
  const RealTime now = host_.now();
  if (!topo_.active()) {
    for (NodeId dest = 0; dest < n_; ++dest) {
      admit(stats, now, from, dest, stamped);
    }
    return;
  }
  // Overlay: the origin emits only its own share of the fan-out; receivers
  // of route-marked copies forward the rest at delivery (relay()).
  topology_origin_targets(topo_, n_, from,
                          [&](NodeId dest, std::uint8_t route_mark) {
                            stamped.route = route_mark;
                            admit(stats, now, from, dest, stamped);
                          });
}

void Network::relay(NetworkStats& stats, NodeId self,
                    const WireMessage& msg) {
  if (!topo_.active() || msg.route == kRouteDirect) return;
  ++stats.topology_hops;
  trace::instant(TraceLayer::kWorkload, TraceName::kRelay, self,
                 std::int64_t(msg.route));
  const RealTime now = host_.now();
  topology_relay_targets(
      topo_, n_, self, msg.sender, msg.route,
      [&](NodeId dest, std::uint8_t route_mark) {
        // Forwarded bytes keep the ORIGIN's sender and tag (a relay cannot
        // re-sign); delay/key draws come from the relay's own streams, and
        // the copy is not re-counted as sent — fanout_msgs tracks it.
        WireMessage copy = msg;
        copy.route = route_mark;
        ++stats.fanout_msgs;
        route(now, self, dest, copy);
      });
}

Duration Network::sample_delay(NodeId from, NodeId dest,
                               const WireMessage& msg) {
  Rng& rng = nodes_[from].link_rng;
  Duration delay = link_delay_.sample(rng) + proc_delay_.sample(rng);
  if (oracle_) {
    if (const auto chosen = oracle_(msg.sender, dest, msg, oracle_seq_++)) {
      // Clamp into the non-faulty envelope: the oracle steers the schedule
      // but cannot break the bounded-delay model.
      delay = std::clamp(*chosen, Duration::zero(),
                         link_delay_.max + proc_delay_.max);
    }
  }
  return delay;
}

void Network::inject_raw(NodeId dest, WireMessage msg, Duration delay) {
  SSBFT_EXPECTS(dest < n_);
  ++stats_.forged;
  tap(TapEvent::Kind::kForged, kNoNode, dest, msg);
  trace::instant(TraceLayer::kWorkload, TraceName::kForged, dest,
                 std::int64_t(delay.ns()));
  schedule_delivery(host_.now() + delay,
                    EventKey{kForgedCreator, forged_seq_++}, dest, msg,
                    /*forged=*/true);
}

void Network::route(RealTime now, NodeId from, NodeId dest,
                    const WireMessage& msg) {
  if (faulty_at(now)) {
    route_chaos(now, from, dest, msg);
    return;
  }
  // Non-faulty: arrival within δ, processing within π of arrival. The
  // destination handler runs once processing completes.
  const Duration delay = sample_delay(from, dest, msg);
  schedule_delivery(now + delay, next_key(from), dest, msg,
                    /*forged=*/false);
}

void Network::route_chaos(RealTime now, NodeId from, NodeId dest,
                          const WireMessage& msg) {
  // Chaos draws come from the AUTHENTIC sender's stream (corruption may
  // rewrite msg.sender, never which stream paid for it).
  Rng& rng = nodes_[from].link_rng;
  NetworkStats& stats = counters();
  if (rng.next_bool(chaos_.drop_prob)) {
    ++stats.dropped;
    tap(TapEvent::Kind::kDropped, msg.sender, dest, msg);
    trace::instant(TraceLayer::kWorkload, TraceName::kChaosDrop, dest);
    return;
  }
  // A faulty network may tamper with anything, including the sender. Only
  // a corrupted copy gets a private message; the rest share the caller's.
  std::optional<WireMessage> corrupted;
  if (rng.next_bool(chaos_.corrupt_prob)) {
    corrupted.emplace(msg);
    corrupt(from, *corrupted);
    ++stats.corrupted;
    trace::instant(TraceLayer::kWorkload, TraceName::kChaosCorrupt, dest);
  }
  const WireMessage& out = corrupted ? *corrupted : msg;
  const Duration delay{rng.next_in(0, chaos_.max_delay.ns())};
  trace::instant(TraceLayer::kWorkload, TraceName::kChaosDelay, dest,
                 std::int64_t(delay.ns()));
  schedule_delivery(now + delay, next_key(from), dest, out, /*forged=*/false);
  if (rng.next_bool(chaos_.duplicate_prob)) {
    ++stats.duplicated;
    trace::instant(TraceLayer::kWorkload, TraceName::kChaosDuplicate, dest);
    const Duration dup_delay{rng.next_in(0, chaos_.max_delay.ns())};
    schedule_delivery(now + dup_delay, next_key(from), dest, out,
                      /*forged=*/false);
  }
}

void Network::Delivery::operator()() const {
  // Verification happens here, at the delivery instant: the check is a pure
  // function of message content, so serial, sharded, and migrated runs
  // reject the same copies at the same points of the total order.
  NetworkStats& stats = net->counters();
  if (!net->auth_.verify(msg)) {
    net->reject(stats, dest, msg);
    return;
  }
  net->relay(stats, dest, msg);  // relay duty precedes local processing
  if (!forged) {
    ++stats.delivered;
    net->tap(TapEvent::Kind::kDelivered, msg.sender, dest, msg);
  }
  NodeState& node = net->nodes_[dest];
  if (node.behavior) node.behavior->on_message(node, msg);
}

void Network::reject(NetworkStats& stats, NodeId dest,
                     const WireMessage& msg) {
  ++stats.auth_rejected;
  tap(TapEvent::Kind::kRejected, msg.sender, dest, msg);
  trace::instant(TraceLayer::kWorkload, TraceName::kAuthReject, dest);
}

void Network::corrupt(NodeId from, WireMessage& msg) {
  // Any tampering here leaves msg.auth stale, so under AuthKind::kHmac the
  // verifier discards the copy at delivery (auth_rejected) — the faulty
  // network garbles traffic but cannot mint valid tags.
  Rng& rng = nodes_[from].link_rng;
  switch (rng.next_below(7)) {
    case 0: msg.kind = MsgKind(rng.next_below(std::uint64_t(MsgKind::kNumKinds))); break;
    case 1: msg.sender = NodeId(rng.next_below(n_)); break;
    case 2: msg.value = rng.next_u64(); break;
    case 3: msg.general = GeneralId{NodeId(rng.next_below(n_))}; break;
    case 4: msg.round = std::uint32_t(rng.next_below(64)); break;
    case 5: msg.auth = rng.next_u64(); break;  // tag tamper
    case 6: {
      // Payload tamper. Shared pool slots are immutable, so the corrupted
      // copy gets its OWN (cloned or fabricated) body; other recipients of
      // the same broadcast keep the original bytes. One draw either way.
      const std::uint64_t r = rng.next_u64();
      if (msg.payload.empty()) {
        msg.payload = Payload{&r, sizeof r};
      } else {
        std::vector<std::uint8_t> bytes(msg.payload.data(),
                                        msg.payload.data() + msg.payload.size());
        bytes[r % bytes.size()] ^= std::uint8_t((r >> 32) | 1);
        msg.payload = Payload{bytes.data(), std::uint32_t(bytes.size())};
      }
      break;
    }
  }
}

void Network::tap(TapEvent::Kind kind, NodeId from, NodeId to,
                  const WireMessage& msg) {
  if (!tap_) return;
  TapEvent event;
  event.kind = kind;
  event.at = host_.now();
  event.from = from;
  event.to = to;
  event.msg = msg;
  tap_(event);
}
}  // namespace ssbft
