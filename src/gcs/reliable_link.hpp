// Reliable FIFO point-to-point links between group-communication daemons.
//
// The simulated network can drop packets (transient communication faults in
// the paper's fault model); this layer adds per-peer sequencing, cumulative
// acks and timer-driven retransmission so every daemon-to-daemon message is
// delivered exactly once and in order — the substrate the sequencer protocol
// is built on. Link acks are control traffic (uncounted, cheap), standing in
// for the acknowledgement piggybacking on Spread's token.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/network.hpp"
#include "sim/actor.hpp"
#include "util/arena.hpp"
#include "util/payload.hpp"

namespace vdep::gcs {

class ReliableLink {
 public:
  // `deliver` receives in-order inner message frames from a peer daemon; the
  // Payload aliases the received packet's buffer (no copy).
  using DeliverFn = std::function<void(NodeId from, Payload&& inner)>;
  // Raw (unreliable, uncounted) frames: heartbeats.
  using RawFn = std::function<void(NodeId from, Payload&& inner)>;

  ReliableLink(sim::Process& owner, net::Network& network, DeliverFn deliver,
               RawFn raw_deliver);

  // Reliable FIFO send. `payload_bytes` is the application-payload portion
  // used for fragmentation-aware wire accounting. `inner` may be a frame
  // shared with other peers (encode-once fan-out); the per-peer link header
  // is spliced on here, and that framed buffer is then shared between the
  // retransmit queue and the in-flight packet.
  void send(NodeId to, Payload inner, std::size_t payload_bytes);

  // Frames `inner` as a raw (unreliable, uncounted) frame. The frame does
  // not depend on the link or the peer, so a sender that repeats the same
  // bytes (heartbeats) builds it once and shares it across every send_raw.
  [[nodiscard]] static Payload raw_frame(std::span<const std::uint8_t> inner);

  // Fire-and-forget, uncounted: transmits a frame built by raw_frame().
  void send_raw(NodeId to, const Payload& frame);

  // Entry point for packets arriving on Port::kGcsDaemon.
  void handle_packet(net::Packet&& packet);

  // Peer declared dead: drop outstanding retransmission state. Receive state
  // is kept so late duplicates from a wrongly-suspected peer stay deduped.
  void forget_peer(NodeId peer);

  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  // Packets with a truncated or unknown link header; each is dropped.
  [[nodiscard]] std::uint64_t frames_dropped() const { return frames_dropped_; }

 private:
  struct Unacked {
    Payload frame;  // shares the buffer with the original transmission
    std::size_t wire_bytes;
  };

  struct PeerTx {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, Unacked> unacked;
    sim::EventHandle retransmit_timer;
  };

  struct PeerRx {
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, Payload> reorder;  // aliases received packet frames
  };

  void transmit(NodeId to, Payload frame, std::size_t wire, bool counted);
  void arm_retransmit(NodeId to);
  void send_ack(NodeId to, std::uint64_t cumulative);

  sim::Process& owner_;
  net::Network& network_;
  DeliverFn deliver_;
  RawFn raw_deliver_;
  std::map<NodeId, PeerTx> tx_;
  std::map<NodeId, PeerRx> rx_;
  // Recycles frame buffers: a frame is reusable once the network (and, for
  // data frames, the retransmit queue) has dropped its Payload references.
  BufferPool frame_pool_;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace vdep::gcs
