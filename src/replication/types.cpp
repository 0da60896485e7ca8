#include "replication/types.hpp"

#include "util/assert.hpp"
#include "util/calibration.hpp"

namespace vdep::replication {

std::string to_string(ReplicationStyle style) {
  switch (style) {
    case ReplicationStyle::kActive: return "active";
    case ReplicationStyle::kWarmPassive: return "warm_passive";
    case ReplicationStyle::kColdPassive: return "cold_passive";
    case ReplicationStyle::kSemiActive: return "semi_active";
    case ReplicationStyle::kHybrid: return "hybrid";
  }
  return "?";
}

std::string style_code(ReplicationStyle style) {
  switch (style) {
    case ReplicationStyle::kActive: return "A";
    case ReplicationStyle::kWarmPassive: return "P";
    case ReplicationStyle::kColdPassive: return "C";
    case ReplicationStyle::kSemiActive: return "S";
    case ReplicationStyle::kHybrid: return "H";
  }
  return "?";
}

ReplicatorParams::ReplicatorParams()
    : traversal_cost(calib::kReplicatorTraversal),
      checkpoint_interval(calib::kDefaultCheckpointInterval),
      cold_launch_delay(msec(800)) {}

Bytes RepEnvelope::encode() const {
  ByteWriter w(payload.size() + 8);
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload);
  return std::move(w).take();
}

RepEnvelope RepEnvelope::decode(const Payload& raw) {
  ByteReader r(raw.owner(), raw);
  RepEnvelope e;
  const auto t = r.u8();
  if (t < 1 || t > 7) throw r.error("bad envelope type", 0);
  e.type = static_cast<Type>(t);
  e.payload = read_payload(r);
  return e;
}

Bytes CheckpointMsg::encode() const {
  ByteWriter w(app_state.size() + reply_cache.size() + 48);
  w.u64(checkpoint_id);
  if (kind == Kind::kDelta) {
    // The kind itself travels in the envelope type (kCheckpointDelta), so
    // full checkpoints stay byte-identical to the pre-delta wire format.
    VDEP_ASSERT_MSG(delta_epoch == checkpoint_id, "delta_epoch != checkpoint_id");
    w.u64(base_epoch);
    w.u64(delta_epoch);
  }
  w.u32(static_cast<std::uint32_t>(applied.size()));
  for (const auto& [client, rid] : applied) {
    w.u64(client.value());
    w.u64(rid);
  }
  w.bytes(app_state);
  w.bytes(reply_cache);
  return std::move(w).take();
}

CheckpointMsg CheckpointMsg::decode(const Payload& raw, Kind kind) {
  ByteReader r(raw.owner(), raw);
  CheckpointMsg m;
  m.kind = kind;
  m.checkpoint_id = r.u64();
  if (kind == Kind::kDelta) {
    m.base_epoch = r.u64();
    m.delta_epoch = r.u64();
    if (m.delta_epoch != m.checkpoint_id) {
      throw r.error("delta checkpoint id/epoch mismatch", 8);
    }
    if (m.base_epoch >= m.delta_epoch) {
      throw r.error("delta checkpoint chains backwards", 8);
    }
  }
  // Each entry is 16 bytes, so a count the frame cannot hold is rejected
  // before anything is allocated for it.
  const auto n = r.u32();
  if (n > r.remaining() / 16) throw r.error("applied count exceeds frame", r.pos() - 4);
  m.applied.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const ProcessId client{r.u64()};
    if (!m.applied.append(client, r.u64())) {
      throw r.error("applied clients not ascending", r.pos() - 16);
    }
  }
  m.app_state = read_payload(r);
  m.reply_cache = read_payload(r);
  return m;
}

Bytes StateTransferMsg::encode() const {
  std::size_t total = anchor.size() + 16;
  for (const auto& d : deltas) total += d.size() + 4;
  ByteWriter w(total);
  w.bytes(anchor);
  w.u32(static_cast<std::uint32_t>(deltas.size()));
  for (const auto& d : deltas) w.bytes(d);
  return std::move(w).take();
}

StateTransferMsg StateTransferMsg::decode(const Payload& raw) {
  ByteReader r(raw.owner(), raw);
  StateTransferMsg m;
  m.anchor = read_payload(r);
  // Each delta is at least its 4-byte length prefix, so a count the frame
  // cannot hold is rejected before anything is allocated for it.
  const auto n = r.u32();
  if (n > r.remaining() / 4) throw r.error("delta count exceeds frame", r.pos() - 4);
  m.deltas.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.deltas.push_back(read_payload(r));
  return m;
}

Bytes SwitchMsg::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(target));
  w.u64(initiator.value());
  return std::move(w).take();
}

SwitchMsg SwitchMsg::decode(std::span<const std::uint8_t> raw) {
  ByteReader r(raw);
  SwitchMsg m;
  const auto t = r.u8();
  if (t > 4) throw r.error("bad switch target", 0);
  m.target = static_cast<ReplicationStyle>(t);
  m.initiator = ProcessId{r.u64()};
  return m;
}

}  // namespace vdep::replication
