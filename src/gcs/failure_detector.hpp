// Heartbeat-based failure detection between daemons.
//
// Implements the FT-CORBA "fault monitoring interval" low-level knob: every
// daemon sends heartbeats each `interval` and suspects a peer after
// `miss_limit` silent intervals. Detection latency therefore tunes between
// fast-but-jumpy and slow-but-safe — one of the trade-offs versatile
// dependability exposes.
#pragma once

#include <functional>
#include <vector>

#include "sim/actor.hpp"
#include "util/calibration.hpp"
#include "util/ids.hpp"

namespace vdep::gcs {

class FailureDetector {
 public:
  using SendHeartbeatFn = std::function<void(NodeId peer)>;
  using SuspectFn = std::function<void(NodeId peer)>;

  FailureDetector(sim::Process& owner, std::vector<NodeId> peers,
                  SendHeartbeatFn send_heartbeat,
                  SimTime interval = calib::kDefaultHeartbeatInterval,
                  int miss_limit = calib::kDefaultHeartbeatMisses);

  // Begins the heartbeat/check timer loop.
  void start();

  void set_on_suspect(SuspectFn fn) { on_suspect_ = std::move(fn); }

  // Called by the daemon when a heartbeat arrives.
  void heartbeat_received(NodeId from);

  // External knowledge that a peer is down (e.g. a takeover announcement
  // naming dead daemons); marks it suspected without waiting for timeouts.
  void mark_dead(NodeId peer);

  [[nodiscard]] bool alive(NodeId peer) const;
  [[nodiscard]] std::vector<NodeId> live_peers() const;
  [[nodiscard]] SimTime interval() const { return interval_; }

 private:
  void tick();

  sim::Process& owner_;
  SendHeartbeatFn send_heartbeat_;
  SuspectFn on_suspect_;
  SimTime interval_;
  int miss_limit_;

  struct PeerState {
    NodeId peer;
    SimTime last_heard = kTimeZero;
    bool suspected = false;
  };
  [[nodiscard]] PeerState* find(NodeId peer);
  [[nodiscard]] const PeerState* find(NodeId peer) const;

  std::vector<PeerState> peers_;  // sorted by peer, unique
};

}  // namespace vdep::gcs
