#include "gcs/reliable_link.hpp"

#include "net/link.hpp"
#include "util/assert.hpp"
#include "util/calibration.hpp"

namespace vdep::gcs {

namespace {

constexpr SimTime kRetransmitTimeout = msec(15);

enum class FrameType : std::uint8_t { kData = 1, kAck = 2, kRaw = 3 };

constexpr std::size_t kFrameHeader = 1 + 8 + 4;

// Same wire layout ByteWriter would produce (u8 type, u64 seq, u32-length-
// prefixed inner), written into `out`, which holds kFrameHeader + inner.size().
void write_frame(std::uint8_t* out, FrameType type, std::uint64_t seq,
                 std::span<const std::uint8_t> inner) {
  std::uint8_t* p = out;
  *p++ = static_cast<std::uint8_t>(type);
  for (std::size_t i = 0; i < 8; ++i) {
    *p++ = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  const auto len = static_cast<std::uint32_t>(inner.size());
  for (std::size_t i = 0; i < 4; ++i) {
    *p++ = static_cast<std::uint8_t>(len >> (8 * i));
  }
  if (!inner.empty()) std::memcpy(p, inner.data(), inner.size());
}

// A frame in a pooled buffer instead of a fresh one.
Payload encode_frame(BufferPool& pool, FrameType type, std::uint64_t seq,
                     std::span<const std::uint8_t> inner) {
  auto buf = pool.acquire(kFrameHeader + inner.size());
  write_frame(buf->data(), type, seq, inner);
  return Payload(buf, std::span<const std::uint8_t>(buf->data(), buf->size()));
}

}  // namespace

ReliableLink::ReliableLink(sim::Process& owner, net::Network& network, DeliverFn deliver,
                           RawFn raw_deliver)
    : owner_(owner),
      network_(network),
      deliver_(std::move(deliver)),
      raw_deliver_(std::move(raw_deliver)) {}

void ReliableLink::transmit(NodeId to, Payload frame, std::size_t wire,
                            bool counted) {
  net::Packet p;
  p.src = owner_.host();
  p.dst = to;
  p.port = net::Port::kGcsDaemon;
  p.payload = std::move(frame);
  p.wire_bytes = wire;
  p.counted = counted;
  network_.send(std::move(p));
}

void ReliableLink::send(NodeId to, Payload inner, std::size_t payload_bytes) {
  auto& peer = tx_[to];
  const std::uint64_t seq = peer.next_seq++;
  // The per-peer sequence number forces one splice here, but the resulting
  // frame is shared (not copied) between the retransmit queue and the packet.
  Payload frame = encode_frame(frame_pool_, FrameType::kData, seq, inner);
  const std::size_t wire = net::wire_bytes(payload_bytes, calib::kGcsHeaderBytes) +
                           (inner.size() - payload_bytes);
  peer.unacked[seq] = Unacked{frame, wire};
  transmit(to, std::move(frame), wire, /*counted=*/true);
  arm_retransmit(to);
}

Payload ReliableLink::raw_frame(std::span<const std::uint8_t> inner) {
  // A buffer of its own, not a pooled one: the caller keeps the frame.
  Bytes buf(kFrameHeader + inner.size());
  write_frame(buf.data(), FrameType::kRaw, 0, inner);
  return Payload(std::move(buf));
}

void ReliableLink::send_raw(NodeId to, const Payload& frame) {
  VDEP_ASSERT(!frame.empty() && frame[0] == static_cast<std::uint8_t>(FrameType::kRaw));
  transmit(to, frame, frame.size(), /*counted=*/false);
}

void ReliableLink::send_ack(NodeId to, std::uint64_t cumulative) {
  Payload frame = encode_frame(frame_pool_, FrameType::kAck, cumulative, {});
  const std::size_t wire = frame.size();
  transmit(to, std::move(frame), wire, /*counted=*/false);
}

void ReliableLink::arm_retransmit(NodeId to) {
  auto& peer = tx_[to];
  if (peer.retransmit_timer.active() || peer.unacked.empty()) return;
  peer.retransmit_timer = owner_.post(kRetransmitTimeout, [this, to] {
    auto it = tx_.find(to);
    if (it == tx_.end() || it->second.unacked.empty()) return;
    for (const auto& [seq, u] : it->second.unacked) {
      ++retransmissions_;
      transmit(to, u.frame, u.wire_bytes, /*counted=*/true);
    }
    arm_retransmit(to);
  });
}

void ReliableLink::forget_peer(NodeId peer) {
  auto it = tx_.find(peer);
  if (it == tx_.end()) return;
  it->second.retransmit_timer.cancel();
  tx_.erase(it);
}

void ReliableLink::handle_packet(net::Packet&& packet) {
  // The reader carries the packet's buffer as its owner, so the inner frame
  // below is a zero-copy alias of the received bytes.
  ByteReader r(packet.payload.owner(), packet.payload);
  FrameType type;
  std::uint64_t seq;
  Payload inner;
  try {
    type = static_cast<FrameType>(r.u8());
    seq = r.u64();
    inner = read_payload(r);
  } catch (const DecodeError&) {
    ++frames_dropped_;  // truncated header or inner length
    return;
  }

  switch (type) {
    case FrameType::kRaw:
      raw_deliver_(packet.src, std::move(inner));
      return;

    case FrameType::kAck: {
      auto it = tx_.find(packet.src);
      if (it == tx_.end()) return;
      auto& unacked = it->second.unacked;
      unacked.erase(unacked.begin(), unacked.upper_bound(seq));
      if (unacked.empty()) it->second.retransmit_timer.cancel();
      return;
    }

    case FrameType::kData: {
      auto& peer = rx_[packet.src];
      if (seq >= peer.next_expected && !peer.reorder.contains(seq)) {
        peer.reorder[seq] = std::move(inner);
      }
      // Deliver the contiguous prefix.
      while (true) {
        auto dit = peer.reorder.find(peer.next_expected);
        if (dit == peer.reorder.end()) break;
        Payload msg = std::move(dit->second);
        peer.reorder.erase(dit);
        ++peer.next_expected;
        deliver_(packet.src, std::move(msg));
      }
      send_ack(packet.src, peer.next_expected - 1);
      return;
    }
  }
  ++frames_dropped_;  // unknown frame type
}

}  // namespace vdep::gcs
