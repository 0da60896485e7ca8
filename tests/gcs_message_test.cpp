#include <gtest/gtest.h>

#include "gcs/message.hpp"

namespace vdep::gcs {
namespace {

TEST(View, EncodeDecodeAndQueries) {
  View v;
  v.group = GroupId{7};
  v.view_id = 3;
  v.members = {{ProcessId{10}, NodeId{1}}, {ProcessId{20}, NodeId{2}}};

  const View d = View::decode(v.encode());
  EXPECT_EQ(d, v);
  EXPECT_TRUE(d.contains(ProcessId{10}));
  EXPECT_FALSE(d.contains(ProcessId{11}));
  EXPECT_EQ(d.daemon_of(ProcessId{20}), NodeId{2});
  EXPECT_EQ(d.rank_of(ProcessId{10}), 0u);
  EXPECT_EQ(d.rank_of(ProcessId{20}), 1u);
  EXPECT_FALSE(d.rank_of(ProcessId{99}).has_value());
  EXPECT_EQ(d.size(), 2u);
}

TEST(InnerMsg, ForwardRoundTrip) {
  Forward f;
  f.group = GroupId{1};
  f.kind = Forward::Kind::kJoin;
  f.svc = ServiceType::kSafe;
  f.origin = OriginId{ProcessId{5}, 42};
  f.origin_daemon = NodeId{3};
  f.payload = filler_bytes(33);

  auto decoded = decode_inner(encode_inner(f));
  auto* d = std::get_if<Forward>(&decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, Forward::Kind::kJoin);
  EXPECT_EQ(d->svc, ServiceType::kSafe);
  EXPECT_EQ(d->origin, (OriginId{ProcessId{5}, 42}));
  EXPECT_EQ(d->origin_daemon, NodeId{3});
  EXPECT_EQ(d->payload, filler_bytes(33));
}

TEST(InnerMsg, OrderedRoundTrip) {
  Ordered o;
  o.group = GroupId{2};
  o.epoch = 4;
  o.seq = 17;
  o.kind = Ordered::Kind::kView;
  o.svc = ServiceType::kAgreed;
  o.origin = OriginId{ProcessId{1}, 2};
  o.origin_daemon = NodeId{0};
  o.payload = filler_bytes(8);
  o.prev_epoch_end = 12;
  o.stable_upto = 9;

  auto decoded = decode_inner(encode_inner(o));
  auto* d = std::get_if<Ordered>(&decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->epoch, 4u);
  EXPECT_EQ(d->seq, 17u);
  EXPECT_EQ(d->kind, Ordered::Kind::kView);
  EXPECT_EQ(d->prev_epoch_end, 12u);
  EXPECT_EQ(d->stable_upto, 9u);
}

TEST(InnerMsg, AcksAndControlRoundTrip) {
  {
    auto decoded = decode_inner(encode_inner(OrdAck{NodeId{1}, GroupId{2}, 3, 4}));
    auto* d = std::get_if<OrdAck>(&decoded);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->from, NodeId{1});
    EXPECT_EQ(d->seq, 4u);
  }
  {
    auto decoded = decode_inner(encode_inner(StableMsg{GroupId{2}, 3, 11}));
    auto* d = std::get_if<StableMsg>(&decoded);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->upto, 11u);
  }
  {
    auto decoded = decode_inner(encode_inner(Takeover{9, NodeId{4}}));
    auto* d = std::get_if<Takeover>(&decoded);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->term, 9u);
    EXPECT_EQ(d->leader, NodeId{4});
  }
  {
    auto decoded =
        decode_inner(encode_inner(FwdAck{GroupId{1}, OriginId{ProcessId{2}, 3}}));
    auto* d = std::get_if<FwdAck>(&decoded);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->origin.seq, 3u);
  }
}

TEST(InnerMsg, SyncStateRoundTrip) {
  SyncState st;
  st.term = 2;
  st.from = NodeId{1};
  Ordered o;
  o.group = GroupId{1};
  o.epoch = 1;
  o.seq = 5;
  st.buffered.push_back(o);
  Forward f;
  f.group = GroupId{1};
  f.origin = OriginId{ProcessId{9}, 1};
  st.pending.push_back(f);
  View v;
  v.group = GroupId{1};
  v.view_id = 1;
  st.views.push_back(v);
  st.acks.push_back(OrdAck{NodeId{1}, GroupId{1}, 1, 4});

  auto decoded = decode_inner(encode_inner(st));
  auto* d = std::get_if<SyncState>(&decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->buffered.size(), 1u);
  EXPECT_EQ(d->pending.size(), 1u);
  EXPECT_EQ(d->views.size(), 1u);
  EXPECT_EQ(d->acks.size(), 1u);
  EXPECT_EQ(d->buffered[0].seq, 5u);
  EXPECT_EQ(d->acks[0].seq, 4u);
}

TEST(InnerMsg, PrivateMsgRoundTrip) {
  PrivateMsg p;
  p.sender = ProcessId{1};
  p.sender_daemon = NodeId{0};
  p.destination = ProcessId{2};
  p.payload = filler_bytes(64);
  auto decoded = decode_inner(encode_inner(p));
  auto* d = std::get_if<PrivateMsg>(&decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->destination, ProcessId{2});
  EXPECT_EQ(d->payload, filler_bytes(64));
}

TEST(InnerMsg, BadTagThrows) {
  Bytes junk{99, 0, 0};
  EXPECT_THROW((void)decode_inner(junk), DecodeError);
}

TEST(InnerMsg, PayloadSizeAccounting) {
  Forward f;
  f.payload = filler_bytes(100);
  EXPECT_EQ(inner_payload_size(InnerMsg{f}), 100u);
  EXPECT_EQ(inner_payload_size(InnerMsg{OrdAck{}}), 0u);
  PrivateMsg p;
  p.payload = filler_bytes(7);
  EXPECT_EQ(inner_payload_size(InnerMsg{p}), 7u);
}

TEST(ServiceType, Names) {
  EXPECT_EQ(to_string(ServiceType::kAgreed), "agreed");
  EXPECT_EQ(to_string(ServiceType::kSafe), "safe");
  EXPECT_EQ(to_string(ServiceType::kBestEffort), "best_effort");
}

// Sets the four-byte count at `at` to 0xffffffff (the same in either byte
// order).
Bytes with_inflated_count(Bytes wire, std::size_t at) {
  for (std::size_t i = 0; i < 4; ++i) wire.at(at + i) = 0xff;
  return wire;
}

TEST(View, InflatedMemberCountThrowsBeforeAllocating) {
  View v;
  v.group = GroupId{7};
  v.members = {{ProcessId{10}, NodeId{1}}, {ProcessId{20}, NodeId{2}}};
  // group (8) and view id (8), then the member count.
  EXPECT_THROW((void)View::decode(with_inflated_count(v.encode(), 16)), DecodeError);
}

TEST(View, EveryTruncatedPrefixDecodesOrThrowsDecodeError) {
  View v;
  v.group = GroupId{7};
  v.view_id = 3;
  v.members = {{ProcessId{10}, NodeId{1}}, {ProcessId{20}, NodeId{2}}};
  const Bytes wire = v.encode();
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    try {
      const View out = View::decode(std::span<const std::uint8_t>(wire.data(), len));
      EXPECT_EQ(len, wire.size());
      EXPECT_EQ(out, v);
    } catch (const DecodeError&) {
      EXPECT_LT(len, wire.size());
    }
  }
}

TEST(InnerMsg, SyncStateInflatedCountsThrowBeforeAllocating) {
  // One element of each kind at its smallest encoding.
  SyncState st;
  st.buffered.push_back(Ordered{});
  st.pending.push_back(Forward{});
  st.views.push_back(View{});
  st.acks.push_back(OrdAck{});
  const Payload frame = encode_inner(st);
  const Bytes wire = frame.to_bytes();
  // tag (1), term (8), from (8); then each count follows the list before it:
  // an Ordered is 86 bytes, a Forward 54, a length-prefixed View 24, an
  // OrdAck 32.
  ASSERT_EQ(wire.size(), 17u + 4 + 86 + 4 + 54 + 4 + 24 + 4 + 32);
  for (std::size_t at : {17u, 107u, 165u, 193u}) {
    EXPECT_THROW((void)decode_inner(Payload::copy_of(with_inflated_count(wire, at))),
                 DecodeError)
        << at;
  }
  const auto decoded = decode_inner(frame);
  const auto* d = std::get_if<SyncState>(&decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->acks.size(), 1u);
}

}  // namespace
}  // namespace vdep::gcs
