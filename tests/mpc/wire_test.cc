#include "mpc/wire.h"

#include <gtest/gtest.h>

#include <limits>

#include "actionlog/action_log.h"
#include "common/serialize.h"
#include "mpc/class_aggregation.h"

namespace psi {
namespace {

// Builds a buffer whose leading varint claims `count` elements but which
// carries only `payload_bytes` further bytes.
std::vector<uint8_t> CountOnlyBuffer(uint64_t count, size_t payload_bytes) {
  BinaryWriter w;
  w.WriteVarU64(count);
  for (size_t i = 0; i < payload_bytes; ++i) w.WriteU8(0);
  return w.TakeBuffer();
}

TEST(WireArcs, RoundTrips) {
  std::vector<Arc> arcs = {{1, 2}, {3, 4}, {0, 7}};
  std::vector<Arc> decoded;
  ASSERT_TRUE(wire::UnpackArcs(wire::PackArcs(arcs), &decoded).ok());
  EXPECT_EQ(decoded, arcs);
}

TEST(WireArcs, RoundTripsEmpty) {
  std::vector<Arc> decoded = {{9, 9}};
  ASSERT_TRUE(wire::UnpackArcs(wire::PackArcs({}), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

// Regression: the old decoder resized to the claimed count before reading a
// single element, so a 10-byte buffer could demand a huge allocation.
TEST(WireArcs, RejectsCountExceedingBuffer) {
  auto buf = CountOnlyBuffer(std::numeric_limits<uint32_t>::max(), 8);
  std::vector<Arc> decoded;
  EXPECT_FALSE(wire::UnpackArcs(buf, &decoded).ok());
}

TEST(WireArcs, RejectsTruncatedElement) {
  auto good = wire::PackArcs({{1, 2}, {3, 4}});
  good.pop_back();
  std::vector<Arc> decoded;
  EXPECT_FALSE(wire::UnpackArcs(good, &decoded).ok());
}

TEST(WireArcs, RejectsTrailingBytes) {
  auto good = wire::PackArcs({{1, 2}});
  good.push_back(0);
  std::vector<Arc> decoded;
  EXPECT_FALSE(wire::UnpackArcs(good, &decoded).ok());
}

TEST(WireBigUInts, RoundTrips) {
  std::vector<BigUInt> v = {BigUInt(0), BigUInt(42), BigUInt(7) << 100};
  std::vector<BigUInt> decoded;
  ASSERT_TRUE(wire::UnpackBigUInts(wire::PackBigUInts(v), &decoded).ok());
  ASSERT_EQ(decoded.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(decoded[i], v[i]);
}

TEST(WireBigUInts, RejectsCountExceedingBuffer) {
  auto buf = CountOnlyBuffer(uint64_t{1} << 40, 4);
  std::vector<BigUInt> decoded;
  EXPECT_FALSE(wire::UnpackBigUInts(buf, &decoded).ok());
}

// Regression for ReadBigUInt itself: a tiny buffer used to pass the fixed
// 2^24 limb cap and drive a multi-hundred-megabyte allocation.
TEST(WireBigUInts, RejectsElementLimbCountExceedingBuffer) {
  BinaryWriter w;
  w.WriteVarU64(1);          // one BigUInt follows
  w.WriteVarU64(1u << 20);   // ... claiming 2^20 limbs (8 MiB)
  w.WriteU64(7);             // ... with one actual limb
  std::vector<BigUInt> decoded;
  EXPECT_FALSE(wire::UnpackBigUInts(w.TakeBuffer(), &decoded).ok());
}

TEST(WireBigInts, RoundTrips) {
  std::vector<BigInt> v = {BigInt(0), BigInt(-42), BigInt(BigUInt(99))};
  std::vector<BigInt> decoded;
  ASSERT_TRUE(wire::UnpackBigInts(wire::PackBigInts(v), &decoded).ok());
  ASSERT_EQ(decoded.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(decoded[i], v[i]);
}

// Regression: the old secure_user_score decoder read the count with a plain
// ReadVarU64 and resized immediately.
TEST(WireBigInts, RejectsCountExceedingBuffer) {
  auto buf = CountOnlyBuffer(uint64_t{1} << 40, 4);
  std::vector<BigInt> decoded;
  EXPECT_FALSE(wire::UnpackBigInts(buf, &decoded).ok());
}

TEST(WireBigInts, RejectsTrailingBytes) {
  auto good = wire::PackBigInts(std::vector<BigInt>{BigInt(5)});
  good.push_back(0);
  std::vector<BigInt> decoded;
  EXPECT_FALSE(wire::UnpackBigInts(good, &decoded).ok());
}

TEST(WireRecords, RoundTrips) {
  std::vector<ActionRecord> recs = {{1, 2, 30}, {4, 5, 60}};
  std::vector<ActionRecord> decoded;
  ASSERT_TRUE(UnpackRecords(PackRecords(recs), &decoded).ok());
  EXPECT_EQ(decoded, recs);
}

// Regression: the old class_aggregation decoder resized to the claimed
// record count before reading any 16-byte record.
TEST(WireRecords, RejectsCountExceedingBuffer) {
  auto buf = CountOnlyBuffer(uint64_t{1} << 32, 16);
  std::vector<ActionRecord> decoded;
  EXPECT_FALSE(UnpackRecords(buf, &decoded).ok());
}

TEST(WireRecords, RejectsTruncatedElement) {
  auto good = PackRecords({{1, 2, 3}});
  good.pop_back();
  std::vector<ActionRecord> decoded;
  EXPECT_FALSE(UnpackRecords(good, &decoded).ok());
}

TEST(CountersCodec, RoundTrips) {
  internal::ObfuscatedCounters counters;
  counters.a = {{3, 7}, {9, 1}};
  counters.c = {{42, {1, 0, 2}}, {99, {0, 5, 0}}};
  const uint64_t h = 3;
  internal::ObfuscatedCounters decoded;
  ASSERT_TRUE(
      internal::UnpackCounters(internal::PackCounters(counters, h), h, &decoded)
          .ok());
  EXPECT_EQ(decoded.a, counters.a);
  EXPECT_EQ(decoded.c, counters.c);
}

// Regression: both loop bounds used to come straight from unchecked
// varints, so a short buffer could spin the decode loops billions of times.
TEST(CountersCodec, RejectsACountExceedingBuffer) {
  auto buf = CountOnlyBuffer(uint64_t{1} << 40, 5);
  internal::ObfuscatedCounters decoded;
  EXPECT_FALSE(internal::UnpackCounters(buf, /*h=*/4, &decoded).ok());
}

TEST(CountersCodec, RejectsCCountExceedingBuffer) {
  BinaryWriter w;
  w.WriteVarU64(0);                 // no a-entries
  w.WriteVarU64(uint64_t{1} << 40); // absurd c-entry count
  w.WriteU64(0);
  internal::ObfuscatedCounters decoded;
  EXPECT_FALSE(internal::UnpackCounters(w.TakeBuffer(), /*h=*/4, &decoded).ok());
}

TEST(CountersCodec, RejectsTrailingBytes) {
  internal::ObfuscatedCounters counters;
  counters.a = {{1, 1}};
  const uint64_t h = 2;
  auto buf = internal::PackCounters(counters, h);
  buf.push_back(0);
  internal::ObfuscatedCounters decoded;
  EXPECT_FALSE(internal::UnpackCounters(buf, h, &decoded).ok());
}

TEST(WireU64s, RoundTrips) {
  std::vector<uint64_t> values = {0, 1, UINT64_MAX, 1ull << 40, 42};
  std::vector<uint64_t> decoded = {9};
  ASSERT_TRUE(wire::UnpackU64s(wire::PackU64s(values), &decoded).ok());
  EXPECT_EQ(decoded, values);

  ASSERT_TRUE(wire::UnpackU64s(wire::PackU64s({}), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(WireU64s, RejectsOversizedCount) {
  std::vector<uint64_t> decoded;
  EXPECT_FALSE(
      wire::UnpackU64s(CountOnlyBuffer(1ull << 40, 16), &decoded).ok());
}

TEST(WireU64s, RejectsTruncationAndTrailingBytes) {
  auto buf = wire::PackU64s({7, 8, 9});
  std::vector<uint64_t> decoded;
  for (size_t len = 0; len < buf.size(); ++len) {
    std::vector<uint8_t> prefix(buf.begin(),
                                buf.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(wire::UnpackU64s(prefix, &decoded).ok()) << "len=" << len;
  }
  buf.push_back(0);
  EXPECT_FALSE(wire::UnpackU64s(buf, &decoded).ok());
}

}  // namespace
}  // namespace psi
