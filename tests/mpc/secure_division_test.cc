#include "mpc/secure_division.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace psi {
namespace {

class SecureDivisionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    p1_ = net_.RegisterParty("P1");
    p2_ = net_.RegisterParty("P2");
    host_ = net_.RegisterParty("H");
  }
  Network net_;
  PartyId p1_, p2_, host_;
};

TEST_F(SecureDivisionTest, QuotientIsExact) {
  Rng r1(1), r2(2);
  SecureDivisionProtocol proto(&net_, p1_, p2_, host_);
  double q = proto.Run(6, 4, &r1, &r2, "t.").ValueOrDie();
  EXPECT_NEAR(q, 1.5, 1e-9);
}

TEST_F(SecureDivisionTest, ZeroDenominatorYieldsZero) {
  Rng r1(3), r2(4);
  SecureDivisionProtocol proto(&net_, p1_, p2_, host_);
  EXPECT_DOUBLE_EQ(proto.Run(5, 0, &r1, &r2, "t.").ValueOrDie(), 0.0);
}

TEST_F(SecureDivisionTest, ZeroNumerator) {
  Rng r1(5), r2(6);
  SecureDivisionProtocol proto(&net_, p1_, p2_, host_);
  EXPECT_DOUBLE_EQ(proto.Run(0, 7, &r1, &r2, "t.").ValueOrDie(), 0.0);
}

TEST_F(SecureDivisionTest, RandomizedQuotientsAccurate) {
  Rng r1(7), r2(8), cases(9);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = cases.UniformU64(1000);
    uint64_t b = 1 + cases.UniformU64(999);
    SecureDivisionProtocol proto(&net_, p1_, p2_, host_);
    double q = proto.Run(a, b, &r1, &r2, "t.").ValueOrDie();
    ASSERT_NEAR(q, static_cast<double>(a) / static_cast<double>(b), 1e-6);
  }
}

TEST_F(SecureDivisionTest, CommunicationPattern) {
  Rng r1(10), r2(11);
  SecureDivisionProtocol proto(&net_, p1_, p2_, host_);
  ASSERT_TRUE(proto.Run(3, 7, &r1, &r2, "t.").ok());
  auto report = net_.Report();
  // Two joint-randomness rounds (2 messages each) + one masked round (2).
  EXPECT_EQ(report.num_rounds, 3u);
  EXPECT_EQ(report.num_messages, 6u);
  EXPECT_EQ(net_.PendingCount(), 0u);
}

TEST_F(SecureDivisionTest, HostSeesOnlyMaskedValues) {
  Rng r1(12), r2(13);
  const uint64_t a1 = 123, a2 = 456;
  SecureDivisionProtocol proto(&net_, p1_, p2_, host_);
  ASSERT_TRUE(proto.Run(a1, a2, &r1, &r2, "t.").ok());
  const auto& v = proto.views();
  // The masked values hide the inputs: ratio preserved, magnitudes scaled.
  EXPECT_NE(v.masked_a1, static_cast<double>(a1));
  EXPECT_NE(v.masked_a2, static_cast<double>(a2));
  EXPECT_NEAR(v.masked_a1 / v.masked_a2, 123.0 / 456.0, 1e-9);
  // r = masked/actual must agree across the two values (same mask).
  EXPECT_NEAR(v.masked_a1 / 123.0, v.masked_a2 / 456.0, 1e-9);
}

TEST_F(SecureDivisionTest, MasksVaryAcrossRuns) {
  Rng r1(14), r2(15);
  SecureDivisionProtocol a(&net_, p1_, p2_, host_);
  SecureDivisionProtocol b(&net_, p1_, p2_, host_);
  ASSERT_TRUE(a.Run(10, 20, &r1, &r2, "t.").ok());
  ASSERT_TRUE(b.Run(10, 20, &r1, &r2, "t.").ok());
  EXPECT_NE(a.views().masked_a1, b.views().masked_a1);
}

TEST_F(SecureDivisionTest, MaskDistributionMatchesZTimesUniform) {
  // r = u * M with M ~ Z: P(M <= 2) = 1/2, so r is unbounded but small
  // masks dominate. Sanity-check the median of r over many runs.
  Rng r1(16), r2(17);
  std::vector<double> masks;
  for (int i = 0; i < 500; ++i) {
    SecureDivisionProtocol proto(&net_, p1_, p2_, host_);
    ASSERT_TRUE(proto.Run(1, 1, &r1, &r2, "t.").ok());
    masks.push_back(proto.views().masked_a1);  // r * 1 == r.
  }
  std::sort(masks.begin(), masks.end());
  double median = masks[masks.size() / 2];
  // Median of U(0,1)*Z: empirically ~ 0.9-1.1; assert a loose envelope.
  EXPECT_GT(median, 0.4);
  EXPECT_LT(median, 2.5);
  EXPECT_GT(masks.front(), 0.0);
}

// ---- The batched share-masked form (Protocol 4 steps 5-9). ----

// Additive shares of `values` in the Protocol 2 style: s1 random in
// [0, 2^64), s2 = value - s1 (so s2 is usually negative).
void Share(const std::vector<uint64_t>& values, Rng* rng,
           std::vector<BigUInt>* s1, std::vector<BigInt>* s2) {
  s1->clear();
  s2->clear();
  for (uint64_t v : values) {
    BigUInt r(rng->UniformU64(~uint64_t{0}));
    s2->push_back(BigInt(BigUInt(v)) - BigInt(r));
    s1->push_back(std::move(r));
  }
}

TEST_F(SecureDivisionTest, DrawDivisionMasksMetersTwoJointRounds) {
  Rng r1(20), r2(21);
  auto masks = DrawDivisionMasks(&net_, p1_, p2_, 5, &r1, &r2, "t.M", "t.r",
                                 /*fraction_bits=*/32)
                   .ValueOrDie();
  ASSERT_EQ(masks.size(), 5u);
  for (const BigUInt& mask : masks) EXPECT_FALSE(mask.IsZero());
  auto report = net_.Report();
  EXPECT_EQ(report.num_rounds, 2u);
  EXPECT_EQ(report.num_messages, 4u);
  EXPECT_EQ(net_.PendingCount(), 0u);
}

TEST(SecureDivisionBatchTest, MaskOwnersMapsCountersToUsers) {
  const std::vector<Arc> arcs{{2, 0}, {1, 2}};
  EXPECT_EQ(MaskOwners(3, arcs), (std::vector<size_t>{0, 1, 2, 2, 1}));
}

TEST(SecureDivisionBatchTest, MaskThenRecombineIsExact) {
  // Two users, one arc (1 -> 0): counters [a_0, a_1, b_10].
  const std::vector<uint64_t> counters{4, 6, 3};
  Rng rng(22);
  std::vector<BigUInt> s1;
  std::vector<BigInt> s2;
  Share(counters, &rng, &s1, &s2);
  const std::vector<BigUInt> masks{BigUInt(1000003), BigUInt(77)};
  const std::vector<size_t> owners = MaskOwners(2, {{1, 0}});
  auto masked = MaskShares(owners, s1, s2, masks).ValueOrDie();
  auto sums = RecombineMaskedShares(masked.m1, masked.m2, 3).ValueOrDie();
  ASSERT_EQ(sums.size(), 3u);
  EXPECT_EQ(sums[0], BigUInt(4 * 1000003));
  EXPECT_EQ(sums[1], BigUInt(6 * 77));
  EXPECT_EQ(sums[2], BigUInt(3 * 77));
}

TEST(SecureDivisionBatchTest, MaskSharesRejectsBadGeometry) {
  const std::vector<BigUInt> masks{BigUInt(5)};
  const std::vector<BigUInt> s1{BigUInt(1), BigUInt(2)};
  const std::vector<BigInt> s2{BigInt(0), BigInt(0)};
  EXPECT_EQ(MaskShares({0, 1}, s1, s2, masks).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MaskShares({0}, s1, s2, masks).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SecureDivisionBatchTest, NegativeRecombinationIsAProtocolError) {
  const std::vector<BigUInt> m1{BigUInt(10), BigUInt(3)};
  const std::vector<BigInt> m2{BigInt(-10), BigInt(-4)};
  auto result = RecombineMaskedShares(m1, m2, 2);
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
}

TEST(SecureDivisionBatchTest, ShortShareVectorIsAProtocolError) {
  const std::vector<BigUInt> m1{BigUInt(10), BigUInt(3)};
  const std::vector<BigInt> m2{BigInt(-1), BigInt(2)};
  EXPECT_EQ(RecombineMaskedShares({BigUInt(10)}, m2, 2).status().code(),
            StatusCode::kProtocolError);
  EXPECT_EQ(RecombineMaskedShares(m1, {BigInt(-1)}, 2).status().code(),
            StatusCode::kProtocolError);
  EXPECT_EQ(RecombineMaskedShares(m1, m2, 3).status().code(),
            StatusCode::kProtocolError);
  EXPECT_TRUE(RecombineMaskedShares(m1, m2, 2).ok());
}

TEST(SecureDivisionBatchTest, ArcQuotientsDivideAndDescale) {
  // Omega lists a decoy arc first; numerators are indexed like Omega.
  const std::vector<Arc> omega{{0, 2}, {1, 0}, {0, 1}};
  const std::vector<BigUInt> masked_a{BigUInt(40), BigUInt(0), BigUInt(9)};
  const std::vector<BigUInt> masked_b{BigUInt(7), BigUInt(5), BigUInt(30)};
  const std::vector<Arc> arcs{{0, 1}, {1, 0}};
  auto p = ArcQuotients(arcs, omega, masked_a, masked_b, /*descale=*/2.0)
               .ValueOrDie();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p[0], 30.0 / 40.0 / 2.0);
  EXPECT_DOUBLE_EQ(p[1], 0.0);  // user 1's denominator is zero.
}

TEST(SecureDivisionBatchTest, ArcMissingFromOmegaIsAProtocolError) {
  const std::vector<Arc> omega{{0, 1}};
  const std::vector<BigUInt> masked_a{BigUInt(4), BigUInt(4)};
  const std::vector<BigUInt> masked_b{BigUInt(2)};
  auto result = ArcQuotients({{1, 0}}, omega, masked_a, masked_b, 1.0);
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
}

}  // namespace
}  // namespace psi
