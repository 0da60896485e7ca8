#include <gtest/gtest.h>

#include <string>

#include "util/bytes.hpp"

namespace vdep {
namespace {

TEST(ByteWriter, RoundTripsAllPrimitives) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  w.bytes(Bytes{1, 2, 3});

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.at_end());
}

TEST(ByteWriter, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

// Every integer width, written across the writer's first reallocation (168
// bytes against a 64-byte initial capacity), against a pinned image of the
// little-endian layout. A writer that starts one byte big reallocates at
// every other boundary and must produce the same bytes.
TEST(ByteWriter, EveryWidthAcrossReallocationMatchesPinnedBytes) {
  auto fill = [](ByteWriter& w) {
    for (std::uint8_t i = 0; i < 4; ++i) {
      w.u8(static_cast<std::uint8_t>(0xa0 + i));
      w.u16(static_cast<std::uint16_t>(0xb1b2 + i));
      w.u32(0xc1c2c3c4u + i);
      w.u64(0xd1d2d3d4d5d6d7d8ULL + i);
      w.i64(-2 - i);
      w.f64(1.5 + i);
      w.boolean(i % 2 == 0);
      w.str(std::string(1, static_cast<char>('k' + i)));
      w.bytes(Bytes{i});
    }
  };
  ByteWriter w;
  fill(w);
  ASSERT_GT(w.size(), ByteWriter::kInitialCapacity);

  std::string hex;
  for (std::uint8_t b : w.data()) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  EXPECT_EQ(hex,
            "a0b2b1c4c3c2c1d8d7d6d5d4d3d2d1feffffffffffffff000000000000f83f01"
            "010000006b0100000000"
            "a1b3b1c5c3c2c1d9d7d6d5d4d3d2d1fdffffffffffffff000000000000044000"
            "010000006c0100000001"
            "a2b4b1c6c3c2c1dad7d6d5d4d3d2d1fcffffffffffffff0000000000000c4001"
            "010000006d0100000002"
            "a3b5b1c7c3c2c1dbd7d6d5d4d3d2d1fbffffffffffffff000000000000124000"
            "010000006e0100000003");

  ByteWriter small(1);
  fill(small);
  EXPECT_EQ(small.data(), w.data());
}

TEST(ByteReader, UnderrunThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  (void)r.u8();
  EXPECT_THROW((void)r.u32(), DecodeError);
}

TEST(ByteReader, TruncatedStringThrows) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow
  ByteReader r(w.data());
  EXPECT_THROW((void)r.str(), DecodeError);
}

TEST(ByteReader, BadBooleanThrows) {
  Bytes raw{2};
  ByteReader r(raw);
  EXPECT_THROW((void)r.boolean(), DecodeError);
}

TEST(ByteReader, EmptyBytesAndStrings) {
  ByteWriter w;
  w.str("");
  w.bytes({});
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.at_end());
}

TEST(ByteReader, RemainingTracksPosition) {
  ByteWriter w;
  w.u64(1);
  w.u64(2);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 16u);
  (void)r.u64();
  EXPECT_EQ(r.remaining(), 8u);
}

TEST(FillerBytes, DeterministicAndSized) {
  EXPECT_EQ(filler_bytes(0).size(), 0u);
  EXPECT_EQ(filler_bytes(100).size(), 100u);
  EXPECT_EQ(filler_bytes(100), filler_bytes(100));
  EXPECT_NE(filler_bytes(100), filler_bytes(100, 0x11));
}

TEST(Fnv1a, KnownProperties) {
  EXPECT_EQ(fnv1a({}), 14695981039346656037ULL);  // offset basis
  const Bytes a = filler_bytes(64);
  Bytes b = a;
  b[10] ^= 1;
  EXPECT_NE(fnv1a(a), fnv1a(b));
  EXPECT_EQ(fnv1a(a), fnv1a(a));
}

}  // namespace
}  // namespace vdep
