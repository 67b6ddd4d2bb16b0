#include "common/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"

namespace psi {
namespace {

TEST(SerializeTest, FixedWidthRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0xbeef);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefull);
  w.WriteI64(-42);
  w.WriteDouble(3.14159);

  BinaryReader r(w.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, VarintRoundTripBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             std::numeric_limits<uint64_t>::max()};
  BinaryWriter w;
  for (uint64_t v : values) w.WriteVarU64(v);
  BinaryReader r(w.buffer());
  for (uint64_t expected : values) {
    uint64_t v;
    ASSERT_TRUE(r.ReadVarU64(&v).ok());
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, VarintSizes) {
  auto size_of = [](uint64_t v) {
    BinaryWriter w;
    w.WriteVarU64(v);
    return w.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(std::numeric_limits<uint64_t>::max()), 10u);
}

TEST(SerializeTest, StringAndBytesRoundTrip) {
  BinaryWriter w;
  w.WriteString("hello \xf0\x9f\x8c\x8d");
  w.WriteBytes({0, 255, 1, 254});
  w.WriteString("");

  BinaryReader r(w.buffer());
  std::string s1, s3;
  std::vector<uint8_t> b;
  ASSERT_TRUE(r.ReadString(&s1).ok());
  ASSERT_TRUE(r.ReadBytes(&b).ok());
  ASSERT_TRUE(r.ReadString(&s3).ok());
  EXPECT_EQ(s1, "hello \xf0\x9f\x8c\x8d");
  EXPECT_EQ(b, (std::vector<uint8_t>{0, 255, 1, 254}));
  EXPECT_TRUE(s3.empty());
}

TEST(SerializeTest, ReadPastEndFails) {
  BinaryWriter w;
  w.WriteU32(7);
  BinaryReader r(w.buffer());
  uint64_t v;
  EXPECT_EQ(r.ReadU64(&v).code(), StatusCode::kSerializationError);
}

TEST(SerializeTest, TruncatedStringFails) {
  BinaryWriter w;
  w.WriteVarU64(100);  // Claims 100 bytes follow; none do.
  BinaryReader r(w.buffer());
  std::string s;
  EXPECT_EQ(r.ReadString(&s).code(), StatusCode::kSerializationError);
}

TEST(SerializeTest, MalformedVarintFails) {
  std::vector<uint8_t> bad(11, 0x80);  // Never terminates within 10 bytes.
  BinaryReader r(bad);
  uint64_t v;
  EXPECT_EQ(r.ReadVarU64(&v).code(), StatusCode::kSerializationError);
}

TEST(SerializeTest, RemainingTracksPosition) {
  BinaryWriter w;
  w.WriteU64(1);
  w.WriteU64(2);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 16u);
  uint64_t v;
  ASSERT_TRUE(r.ReadU64(&v).ok());
  EXPECT_EQ(r.remaining(), 8u);
}

TEST(SerializeTest, TruncatedVarintFailsAtEveryCutPoint) {
  BinaryWriter w;
  w.WriteVarU64(std::numeric_limits<uint64_t>::max());  // 10-byte encoding.
  const auto& full = w.buffer();
  for (size_t len = 0; len < full.size(); ++len) {
    std::vector<uint8_t> cut(full.begin(),
                             full.begin() + static_cast<ptrdiff_t>(len));
    BinaryReader r(cut);
    uint64_t v;
    EXPECT_EQ(r.ReadVarU64(&v).code(), StatusCode::kSerializationError)
        << "len=" << len;
  }
}

TEST(SerializeTest, ReadCountRejectsImpossibleCounts) {
  // A one-byte buffer claiming 2^64 - 1 elements: ReadCount must reject it
  // without attempting any allocation.
  BinaryWriter w;
  w.WriteVarU64(std::numeric_limits<uint64_t>::max());
  w.WriteU8(0);
  BinaryReader r(w.buffer());
  uint64_t count;
  EXPECT_EQ(r.ReadCount(&count).code(), StatusCode::kSerializationError);
}

TEST(SerializeTest, ReadCountScalesByElementSize) {
  // 4 elements follow, 8 bytes each.
  BinaryWriter w;
  w.WriteVarU64(4);
  for (uint64_t i = 0; i < 4; ++i) w.WriteU64(i);

  {
    BinaryReader r(w.buffer());
    uint64_t count;
    ASSERT_TRUE(r.ReadCount(&count, /*min_bytes_per_element=*/8).ok());
    EXPECT_EQ(count, 4u);
  }
  {
    // The same prefix is impossible if each element needs at least 9 bytes.
    BinaryReader r(w.buffer());
    uint64_t count;
    EXPECT_EQ(r.ReadCount(&count, /*min_bytes_per_element=*/9).code(),
              StatusCode::kSerializationError);
  }
}

TEST(SerializeTest, ReadCountAcceptsExactFit) {
  BinaryWriter w;
  w.WriteVarU64(3);
  w.WriteRaw(reinterpret_cast<const uint8_t*>("abc"), 3);
  BinaryReader r(w.buffer());
  uint64_t count;
  ASSERT_TRUE(r.ReadCount(&count).ok());
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(r.remaining(), 3u);
}

TEST(SerializeTest, OverlongLengthPrefixOnBytesFails) {
  // Length prefix exceeds the remaining buffer by one byte.
  BinaryWriter w;
  w.WriteVarU64(5);
  w.WriteRaw(reinterpret_cast<const uint8_t*>("abcd"), 4);
  BinaryReader r(w.buffer());
  std::vector<uint8_t> out;
  EXPECT_EQ(r.ReadBytes(&out).code(), StatusCode::kSerializationError);
}

TEST(SerializeTest, EveryReadFailsCleanlyOnRandomTruncations) {
  // Build one buffer with every field type, then replay every possible
  // truncation. No read may succeed past the cut or touch memory out of
  // bounds (ASan job enforces the latter).
  BinaryWriter w;
  w.WriteU8(1);
  w.WriteU16(2);
  w.WriteU32(3);
  w.WriteU64(4);
  w.WriteVarU64(1u << 20);
  w.WriteString("payload");
  w.WriteBytes({9, 8, 7});
  const auto& full = w.buffer();

  for (size_t len = 0; len <= full.size(); ++len) {
    std::vector<uint8_t> cut(full.begin(),
                             full.begin() + static_cast<ptrdiff_t>(len));
    BinaryReader r(cut);
    uint8_t u8;
    uint16_t u16;
    uint32_t u32;
    uint64_t u64, var;
    std::string s;
    std::vector<uint8_t> b;
    Status st = r.ReadU8(&u8);
    if (st.ok()) st = r.ReadU16(&u16);
    if (st.ok()) st = r.ReadU32(&u32);
    if (st.ok()) st = r.ReadU64(&u64);
    if (st.ok()) st = r.ReadVarU64(&var);
    if (st.ok()) st = r.ReadString(&s);
    if (st.ok()) st = r.ReadBytes(&b);
    if (len < full.size()) {
      EXPECT_EQ(st.code(), StatusCode::kSerializationError) << "len=" << len;
    } else {
      EXPECT_TRUE(st.ok());
      EXPECT_TRUE(r.AtEnd());
    }
  }
}

TEST(SerializeTest, Crc32KnownVectors) {
  // The standard CRC-32 check value.
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  const char* a = "a";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(a), 1), 0xE8B7BE43u);
}

// The classic byte-at-a-time CRC-32 (reflected polynomial 0xEDB88320), kept
// as the reference for the table-driven implementation.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SerializeTest, Crc32MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  Rng rng(0xc0c);
  std::vector<uint8_t> buf(4096 + 8);
  rng.FillBytes(buf.data(), buf.size());
  const char* check = "123456789";
  EXPECT_EQ(ReferenceCrc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  for (size_t len = 0; len <= 4096; ++len) {
    const uint8_t* start = buf.data() + len % 8;  // Every misalignment.
    ASSERT_EQ(Crc32(start, len), ReferenceCrc32(start, len)) << "len " << len;
  }
}

TEST(SerializeTest, Crc32DistinguishesNearbyBuffers) {
  std::vector<uint8_t> buf(64, 0x5a);
  uint32_t base = Crc32(buf);
  for (size_t i = 0; i < buf.size(); ++i) {
    auto flipped = buf;
    flipped[i] ^= 1;
    EXPECT_NE(Crc32(flipped), base) << "byte " << i;
  }
}

TEST(SerializeTest, NegativeAndSpecialDoubles) {
  BinaryWriter w;
  w.WriteDouble(-0.0);
  w.WriteDouble(std::numeric_limits<double>::infinity());
  w.WriteDouble(1e-300);
  BinaryReader r(w.buffer());
  double a, b, c;
  ASSERT_TRUE(r.ReadDouble(&a).ok());
  ASSERT_TRUE(r.ReadDouble(&b).ok());
  ASSERT_TRUE(r.ReadDouble(&c).ok());
  EXPECT_EQ(a, 0.0);
  EXPECT_TRUE(std::signbit(a));
  EXPECT_TRUE(std::isinf(b));
  EXPECT_DOUBLE_EQ(c, 1e-300);
}

}  // namespace
}  // namespace psi
