#include "gcs/message.hpp"

#include "util/assert.hpp"

namespace vdep::gcs {

std::string to_string(ServiceType svc) {
  switch (svc) {
    case ServiceType::kBestEffort: return "best_effort";
    case ServiceType::kReliable: return "reliable";
    case ServiceType::kFifo: return "fifo";
    case ServiceType::kCausal: return "causal";
    case ServiceType::kAgreed: return "agreed";
    case ServiceType::kSafe: return "safe";
  }
  return "?";
}

namespace {

enum class Tag : std::uint8_t {
  kForward = 1,
  kOrdered = 2,
  kOrdAck = 3,
  kStable = 4,
  kTakeover = 5,
  kSyncState = 6,
  kPrivate = 7,
  kFwdAck = 8,
};

ServiceType decode_svc(ByteReader& r) {
  const auto v = r.u8();
  if (v > static_cast<std::uint8_t>(ServiceType::kSafe)) {
    throw r.error("bad service type", r.pos() - 1);
  }
  return static_cast<ServiceType>(v);
}

// Smallest encodings of SyncState's elements (empty payloads; a trace
// context is 16 bytes; a view travels length-prefixed and holds at least its
// group, id and member count).
constexpr std::size_t kMinOrderedBytes = 8 + 8 + 8 + 1 + 1 + 8 + 8 + 8 + 4 + 8 + 8 + 16;
constexpr std::size_t kMinForwardBytes = 8 + 1 + 1 + 8 + 8 + 8 + 4 + 16;
constexpr std::size_t kMinViewBytes = 4 + 8 + 8 + 4;
constexpr std::size_t kOrdAckBytes = 4 * 8;

// Per-thread: trials on the parallel campaign fleet each count their own
// encodes without racing (the encode-count test reads it on its own thread).
thread_local std::uint64_t g_encode_inner_count = 0;

}  // namespace

std::uint64_t encode_inner_count() { return g_encode_inner_count; }

void Forward::encode_to(ByteWriter& w) const {
  w.u64(group.value());
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(static_cast<std::uint8_t>(svc));
  w.u64(origin.sender.value());
  w.u64(origin.seq);
  w.u64(origin_daemon.value());
  w.bytes(payload);
  trace.encode_to(w);
}

Forward Forward::decode(ByteReader& r) {
  Forward f;
  f.group = GroupId{r.u64()};
  const auto kind = r.u8();
  if (kind > 3) throw r.error("bad forward kind", r.pos() - 1);
  f.kind = static_cast<Kind>(kind);
  f.svc = decode_svc(r);
  f.origin.sender = ProcessId{r.u64()};
  f.origin.seq = r.u64();
  f.origin_daemon = NodeId{r.u64()};
  f.payload = read_payload(r);
  f.trace = obs::TraceContext::decode(r);
  return f;
}

void Ordered::encode_to(ByteWriter& w) const {
  w.u64(group.value());
  w.u64(epoch);
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(static_cast<std::uint8_t>(svc));
  w.u64(origin.sender.value());
  w.u64(origin.seq);
  w.u64(origin_daemon.value());
  w.bytes(payload);
  w.u64(prev_epoch_end);
  w.u64(stable_upto);
  trace.encode_to(w);
}

Ordered Ordered::decode(ByteReader& r) {
  Ordered o;
  o.group = GroupId{r.u64()};
  o.epoch = r.u64();
  o.seq = r.u64();
  const auto kind = r.u8();
  if (kind > 1) throw r.error("bad ordered kind", r.pos() - 1);
  o.kind = static_cast<Kind>(kind);
  o.svc = decode_svc(r);
  o.origin.sender = ProcessId{r.u64()};
  o.origin.seq = r.u64();
  o.origin_daemon = NodeId{r.u64()};
  o.payload = read_payload(r);
  o.prev_epoch_end = r.u64();
  o.stable_upto = r.u64();
  o.trace = obs::TraceContext::decode(r);
  return o;
}

void OrdAck::encode_to(ByteWriter& w) const {
  w.u64(from.value());
  w.u64(group.value());
  w.u64(epoch);
  w.u64(seq);
}

OrdAck OrdAck::decode(ByteReader& r) {
  OrdAck a;
  a.from = NodeId{r.u64()};
  a.group = GroupId{r.u64()};
  a.epoch = r.u64();
  a.seq = r.u64();
  return a;
}

void StableMsg::encode_to(ByteWriter& w) const {
  w.u64(group.value());
  w.u64(epoch);
  w.u64(upto);
}

StableMsg StableMsg::decode(ByteReader& r) {
  StableMsg s;
  s.group = GroupId{r.u64()};
  s.epoch = r.u64();
  s.upto = r.u64();
  return s;
}

void Takeover::encode_to(ByteWriter& w) const {
  w.u64(term);
  w.u64(leader.value());
}

Takeover Takeover::decode(ByteReader& r) {
  Takeover t;
  t.term = r.u64();
  t.leader = NodeId{r.u64()};
  return t;
}

void FwdAck::encode_to(ByteWriter& w) const {
  w.u64(group.value());
  w.u64(origin.sender.value());
  w.u64(origin.seq);
}

FwdAck FwdAck::decode(ByteReader& r) {
  FwdAck a;
  a.group = GroupId{r.u64()};
  a.origin.sender = ProcessId{r.u64()};
  a.origin.seq = r.u64();
  return a;
}

void SyncState::encode_to(ByteWriter& w) const {
  w.u64(term);
  w.u64(from.value());
  w.u32(static_cast<std::uint32_t>(buffered.size()));
  for (const auto& o : buffered) o.encode_to(w);
  w.u32(static_cast<std::uint32_t>(pending.size()));
  for (const auto& f : pending) f.encode_to(w);
  w.u32(static_cast<std::uint32_t>(views.size()));
  for (const auto& v : views) w.bytes(v.encode());
  w.u32(static_cast<std::uint32_t>(acks.size()));
  for (const auto& a : acks) a.encode_to(w);
}

SyncState SyncState::decode(ByteReader& r) {
  // Each count is bounded by what the rest of the frame can hold at the
  // element's smallest encoding, before anything is reserved for it.
  auto count = [&r](std::size_t min_bytes, const char* what) {
    const auto n = r.u32();
    if (n > r.remaining() / min_bytes) {
      throw r.error(std::string(what) + " count exceeds frame", r.pos() - 4);
    }
    return n;
  };
  SyncState s;
  s.term = r.u64();
  s.from = NodeId{r.u64()};
  const auto nb = count(kMinOrderedBytes, "buffered");
  s.buffered.reserve(nb);
  for (std::uint32_t i = 0; i < nb; ++i) s.buffered.push_back(Ordered::decode(r));
  const auto np = count(kMinForwardBytes, "pending");
  s.pending.reserve(np);
  for (std::uint32_t i = 0; i < np; ++i) s.pending.push_back(Forward::decode(r));
  const auto nv = count(kMinViewBytes, "view");
  s.views.reserve(nv);
  for (std::uint32_t i = 0; i < nv; ++i) s.views.push_back(View::decode(r.bytes_view()));
  const auto na = count(kOrdAckBytes, "ack");
  s.acks.reserve(na);
  for (std::uint32_t i = 0; i < na; ++i) s.acks.push_back(OrdAck::decode(r));
  return s;
}

void PrivateMsg::encode_to(ByteWriter& w) const {
  w.u64(sender.value());
  w.u64(sender_daemon.value());
  w.u64(destination.value());
  w.bytes(payload);
  trace.encode_to(w);
}

PrivateMsg PrivateMsg::decode(ByteReader& r) {
  PrivateMsg p;
  p.sender = ProcessId{r.u64()};
  p.sender_daemon = NodeId{r.u64()};
  p.destination = ProcessId{r.u64()};
  p.payload = read_payload(r);
  p.trace = obs::TraceContext::decode(r);
  return p;
}

Payload encode_inner(const InnerMsg& msg) {
  ++g_encode_inner_count;
  ByteWriter w;
  std::visit(
      [&w]<typename T>(const T& m) {
        if constexpr (std::is_same_v<T, Forward>) w.u8(static_cast<std::uint8_t>(Tag::kForward));
        else if constexpr (std::is_same_v<T, Ordered>) w.u8(static_cast<std::uint8_t>(Tag::kOrdered));
        else if constexpr (std::is_same_v<T, OrdAck>) w.u8(static_cast<std::uint8_t>(Tag::kOrdAck));
        else if constexpr (std::is_same_v<T, StableMsg>) w.u8(static_cast<std::uint8_t>(Tag::kStable));
        else if constexpr (std::is_same_v<T, Takeover>) w.u8(static_cast<std::uint8_t>(Tag::kTakeover));
        else if constexpr (std::is_same_v<T, SyncState>) w.u8(static_cast<std::uint8_t>(Tag::kSyncState));
        else if constexpr (std::is_same_v<T, PrivateMsg>) w.u8(static_cast<std::uint8_t>(Tag::kPrivate));
        else if constexpr (std::is_same_v<T, FwdAck>) w.u8(static_cast<std::uint8_t>(Tag::kFwdAck));
        else static_assert(!sizeof(T), "unhandled message type");
        m.encode_to(w);
      },
      msg);
  return std::move(w).take();
}

namespace {

InnerMsg decode_inner_impl(ByteReader& r) {
  const auto tag = r.u8();
  switch (static_cast<Tag>(tag)) {
    case Tag::kForward: return Forward::decode(r);
    case Tag::kOrdered: return Ordered::decode(r);
    case Tag::kOrdAck: return OrdAck::decode(r);
    case Tag::kStable: return StableMsg::decode(r);
    case Tag::kTakeover: return Takeover::decode(r);
    case Tag::kSyncState: return SyncState::decode(r);
    case Tag::kPrivate: return PrivateMsg::decode(r);
    case Tag::kFwdAck: return FwdAck::decode(r);
  }
  throw r.error("bad inner message tag", r.pos() - 1);
}

}  // namespace

InnerMsg decode_inner(const Payload& frame) {
  ByteReader r(frame.owner(), frame);
  return decode_inner_impl(r);
}

InnerMsg decode_inner(std::span<const std::uint8_t> raw) {
  ByteReader r(raw);
  return decode_inner_impl(r);
}

std::size_t inner_payload_size(const InnerMsg& msg) {
  return std::visit(
      []<typename T>(const T& m) -> std::size_t {
        if constexpr (std::is_same_v<T, Forward> || std::is_same_v<T, Ordered> ||
                      std::is_same_v<T, PrivateMsg>) {
          return m.payload.size();
        } else if constexpr (std::is_same_v<T, SyncState>) {
          std::size_t total = 0;
          for (const auto& o : m.buffered) total += o.payload.size();
          for (const auto& f : m.pending) total += f.payload.size();
          return total;
        } else {
          return 0;
        }
      },
      msg);
}

}  // namespace vdep::gcs
