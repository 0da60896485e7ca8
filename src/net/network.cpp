#include "net/network.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace vdep::net {

namespace {
// In-memory handoff cost for loopback delivery (process <-> local daemon).
constexpr SimTime kLoopbackDelay = usec(4);
// Modelled TCP retransmission penalty when a reliable packet hits loss.
constexpr SimTime kTcpRetransmitPenalty = msec(2);
}  // namespace

Network::Network(sim::Kernel& kernel, LinkParams defaults)
    : kernel_(kernel), defaults_(defaults), rng_(kernel.fork_rng(0x6e657477)) {}

NodeId Network::add_host(const std::string& name) {
  const NodeId id{hosts_.size()};
  // Grow the link table by one column; existing queue heads carry over.
  for (auto& h : hosts_) h.link_free.push_back(kTimeZero);
  hosts_.push_back(HostRec{name, sim::Cpu(kernel_, id), true, {}, {},
                           std::vector<SimTime>(hosts_.size() + 1, kTimeZero)});
  return id;
}

Network::HostRec& Network::host_rec(NodeId id) {
  VDEP_ASSERT(id.value() < hosts_.size());
  return hosts_[id.value()];
}

const Network::HostRec& Network::host_rec(NodeId id) const {
  VDEP_ASSERT(id.value() < hosts_.size());
  return hosts_[id.value()];
}

const std::string& Network::host_name(NodeId id) const { return host_rec(id).name; }

sim::Cpu& Network::cpu(NodeId id) { return host_rec(id).cpu; }

void Network::bind(NodeId host, Port port, PacketHandler handler) {
  const auto slot = static_cast<std::size_t>(port);
  VDEP_ASSERT(slot < kPortSlots);
  auto& bound = host_rec(host).handlers[slot];
  VDEP_ASSERT_MSG(!bound, "port already bound");
  bound = std::move(handler);
}

void Network::unbind(NodeId host, Port port) {
  const auto slot = static_cast<std::size_t>(port);
  VDEP_ASSERT(slot < kPortSlots);
  host_rec(host).handlers[slot] = nullptr;
}

void Network::set_host_up(NodeId id, bool up) { host_rec(id).up = up; }

bool Network::host_up(NodeId id) const { return host_rec(id).up; }

void Network::set_link_params(NodeId from, NodeId to, LinkParams params) {
  link_overrides_[{from, to}] = params;
}

const LinkParams& Network::link_params(NodeId from, NodeId to) const {
  if (link_overrides_.empty()) return defaults_;
  auto it = link_overrides_.find({from, to});
  return it != link_overrides_.end() ? it->second : defaults_;
}

void Network::partition(const std::set<NodeId>& side_a, const std::set<NodeId>& side_b) {
  for (NodeId a : side_a) {
    for (NodeId b : side_b) {
      cut_pairs_.insert({a, b});
      cut_pairs_.insert({b, a});
    }
  }
}

void Network::heal_partitions() { cut_pairs_.clear(); }

bool Network::partitioned(NodeId a, NodeId b) const {
  return !cut_pairs_.empty() && cut_pairs_.contains({a, b});
}

const TrafficTotals& Network::host_sent(NodeId id) const { return host_rec(id).sent; }

void Network::reset_totals() {
  totals_ = {};
  for (auto& h : hosts_) h.sent = {};
}

void Network::send(Packet packet) {
  if (packet.wire_bytes == 0) {
    packet.wire_bytes = packet.payload.size() + calib::kTcpIpHeaderBytes;
  }

  auto& src = host_rec(packet.src);
  if (!src.up) return;  // a dead host sends nothing

  if (packet.src == packet.dst) {
    // Loopback: free of charge, near-instant, never lost.
    kernel_.post(kLoopbackDelay,
                 [this, p = std::move(packet)]() mutable { deliver(std::move(p)); });
    return;
  }

  const LinkParams& link = link_params(packet.src, packet.dst);

  // Loss / partition handling.
  SimTime penalty = kTimeZero;
  const bool cut = partitioned(packet.src, packet.dst) || !host_up(packet.dst);
  if (cut || rng_.chance(link.loss_probability)) {
    if (!packet.reliable || cut) {
      ++totals_.dropped_packets;
      return;
    }
    // Reliable transport retransmits; model the recovery as added delay.
    penalty = kTcpRetransmitPenalty;
  }

  // Serialization queue at the sender's link.
  SimTime& next_free = src.link_free[packet.dst.value()];
  const SimTime serialize = sec_f(static_cast<double>(packet.wire_bytes) /
                                  link.bandwidth_bytes_per_sec);
  const SimTime start = std::max(kernel_.now(), next_free);
  next_free = start + serialize;

  const double jitter_ns =
      std::max(0.0, rng_.normal(0.0, static_cast<double>(link.jitter_stddev.count())));
  const SimTime arrival =
      next_free + link.propagation + SimTime{static_cast<std::int64_t>(jitter_ns)} +
      penalty;

  if (packet.counted) {
    ++totals_.packets;
    totals_.bytes += packet.wire_bytes;
    ++src.sent.packets;
    src.sent.bytes += packet.wire_bytes;
  }

  kernel_.post_at(arrival,
                  [this, p = std::move(packet)]() mutable { deliver(std::move(p)); });
}

void Network::deliver(Packet&& packet) {
  auto& dst = host_rec(packet.dst);
  if (!dst.up) return;
  const auto slot = static_cast<std::size_t>(packet.port);
  if (slot >= kPortSlots || !dst.handlers[slot]) {
    log_debug(kernel_.now(), "net",
              "dropping packet to unbound port on " + dst.name);
    return;
  }
  dst.handlers[slot](std::move(packet));
}

}  // namespace vdep::net
