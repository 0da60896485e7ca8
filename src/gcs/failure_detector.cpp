#include "gcs/failure_detector.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace vdep::gcs {

FailureDetector::FailureDetector(sim::Process& owner, std::vector<NodeId> peers,
                                 SendHeartbeatFn send_heartbeat, SimTime interval,
                                 int miss_limit)
    : owner_(owner),
      send_heartbeat_(std::move(send_heartbeat)),
      interval_(interval),
      miss_limit_(miss_limit) {
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  peers_.reserve(peers.size());
  for (NodeId p : peers) peers_.push_back(PeerState{p});
}

FailureDetector::PeerState* FailureDetector::find(NodeId peer) {
  auto it = std::lower_bound(peers_.begin(), peers_.end(), peer,
                             [](const PeerState& st, NodeId p) { return st.peer < p; });
  return it != peers_.end() && it->peer == peer ? &*it : nullptr;
}

const FailureDetector::PeerState* FailureDetector::find(NodeId peer) const {
  return const_cast<FailureDetector*>(this)->find(peer);
}

void FailureDetector::start() {
  // Treat start time as a fresh heartbeat from everyone so nobody is
  // suspected before a full timeout elapses.
  for (auto& st : peers_) st.last_heard = owner_.now();
  tick();
}

void FailureDetector::tick() {
  for (auto& st : peers_) {
    if (st.suspected) continue;
    const NodeId peer = st.peer;
    send_heartbeat_(peer);
    const SimTime deadline = st.last_heard + interval_ * miss_limit_;
    if (owner_.now() > deadline) {
      st.suspected = true;
      log_info(owner_.now(), "fd",
               owner_.name() + " suspects daemon@" + peer.str());
      if (on_suspect_) on_suspect_(peer);
    }
  }
  owner_.post(interval_, [this] { tick(); });
}

void FailureDetector::heartbeat_received(NodeId from) {
  PeerState* st = find(from);
  if (st == nullptr) return;
  // Suspicion is sticky: a suspected daemon stays out (crash-stop model).
  if (!st->suspected) st->last_heard = owner_.now();
}

void FailureDetector::mark_dead(NodeId peer) {
  PeerState* st = find(peer);
  if (st == nullptr || st->suspected) return;
  st->suspected = true;
  if (on_suspect_) on_suspect_(peer);
}

bool FailureDetector::alive(NodeId peer) const {
  const PeerState* st = find(peer);
  return st != nullptr && !st->suspected;
}

std::vector<NodeId> FailureDetector::live_peers() const {
  std::vector<NodeId> out;
  for (const auto& st : peers_) {
    if (!st.suspected) out.push_back(st.peer);
  }
  return out;
}

}  // namespace vdep::gcs
