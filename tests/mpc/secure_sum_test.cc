#include "mpc/secure_sum.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "bigint/modular.h"
#include "common/stats.h"
#include "net/envelope.h"
#include "privacy/leakage.h"
#include "transcript_digest.h"

namespace psi {
namespace {

// Test harness: m providers + a host acting as third party for m == 2.
template <typename Net = Network>
struct BasicSumFixture {
  explicit BasicSumFixture(size_t m) {
    host = net.RegisterParty("H");
    for (size_t k = 0; k < m; ++k) {
      providers.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
      rngs.push_back(std::make_unique<Rng>(1000 + k));
    }
    pair_secret = std::make_unique<Rng>(555);
  }

  std::vector<Rng*> RngPtrs() {
    std::vector<Rng*> out;
    for (auto& r : rngs) out.push_back(r.get());
    return out;
  }

  PartyId ThirdParty() const {
    return providers.size() > 2 ? providers[2] : host;
  }

  Net net;
  PartyId host;
  std::vector<PartyId> providers;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::unique_ptr<Rng> pair_secret;
};

using SumFixture = BasicSumFixture<>;

SecureSumConfig MakeConfig(uint64_t bound, size_t s_bits) {
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(bound);
  cfg.modulus_s = BigUInt::PowerOfTwo(s_bits);
  return cfg;
}

TEST(SecureSumTest, Protocol1SharesReconstructModS) {
  SumFixture f(4);
  auto cfg = MakeConfig(1000, 64);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
  std::vector<std::vector<uint64_t>> inputs{
      {10, 0, 999}, {20, 0, 0}, {30, 0, 1}, {40, 0, 0}};
  auto shares =
      proto.RunProtocol1(inputs, f.RngPtrs(), "t.").ValueOrDie();
  const BigUInt& s = cfg.modulus_s;
  std::vector<uint64_t> expected{100, 0, 1000};
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(ModAdd(shares.s1[c] % s, shares.s2[c] % s, s),
              BigUInt(expected[c]));
  }
}

TEST(SecureSumTest, Protocol1MessageCountMatchesTable1Rows) {
  for (size_t m : {2u, 3u, 5u}) {
    SumFixture f(m);
    SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                            MakeConfig(10, 64));
    std::vector<std::vector<uint64_t>> inputs(m, std::vector<uint64_t>{1, 2});
    ASSERT_TRUE(proto.RunProtocol1(inputs, f.RngPtrs(), "t.").ok());
    auto report = f.net.Report();
    ASSERT_EQ(report.rounds.size(), 2u);
    EXPECT_EQ(report.rounds[0].num_messages, m * (m - 1));
    EXPECT_EQ(report.rounds[1].num_messages, m - 2);
  }
}

TEST(SecureSumTest, Protocol2IntegerSharesReconstructExactly) {
  for (size_t m : {2u, 3u, 6u}) {
    SumFixture f(m);
    SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                            MakeConfig(100000, 128));
    Rng input_rng(m);
    std::vector<std::vector<uint64_t>> inputs(
        m, std::vector<uint64_t>(50));
    std::vector<uint64_t> expected(50, 0);
    for (size_t c = 0; c < 50; ++c) {
      for (size_t k = 0; k < m; ++k) {
        inputs[k][c] = input_rng.UniformU64(100000 / m);
        expected[c] += inputs[k][c];
      }
    }
    auto shares = proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(),
                                     "t.")
                      .ValueOrDie();
    for (size_t c = 0; c < 50; ++c) {
      EXPECT_EQ(shares.At(c).Reconstruct(), BigInt(BigUInt(expected[c])))
          << "m=" << m << " c=" << c;
    }
    EXPECT_EQ(f.net.PendingCount(), 0u);
  }
}

TEST(SecureSumTest, Protocol2HandlesZeroAndBoundValues) {
  SumFixture f(3);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                          MakeConfig(100, 80));
  std::vector<std::vector<uint64_t>> inputs{{0, 100, 1}, {0, 0, 0}, {0, 0, 0}};
  auto shares =
      proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(), "t.")
          .ValueOrDie();
  EXPECT_EQ(shares.At(0).Reconstruct(), BigInt(0));
  EXPECT_EQ(shares.At(1).Reconstruct(), BigInt(100));
  EXPECT_EQ(shares.At(2).Reconstruct(), BigInt(1));
}

TEST(SecureSumTest, Protocol2CorrectionBranchExercised) {
  // s1 is uniform on Z_S, so the no-correction branch (s1 <= x) happens with
  // probability (x+1)/S. With S = 64 and x around 5-9 both branches appear
  // across 400 counters; with S huge, corrections dominate. Reconstruction
  // must be exact either way.
  SumFixture f(2);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                          MakeConfig(10, 6));  // S = 64 > 4A.
  std::vector<std::vector<uint64_t>> inputs(2, std::vector<uint64_t>(400, 0));
  for (size_t c = 0; c < 400; ++c) {
    inputs[0][c] = c % 5;
    inputs[1][c] = c % 6;
  }
  auto shares =
      proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(), "t.")
          .ValueOrDie();
  size_t corrections = 0;
  for (size_t c = 0; c < 400; ++c) {
    EXPECT_EQ(shares.At(c).Reconstruct(),
              BigInt(BigUInt(inputs[0][c] + inputs[1][c])));
    if (proto.views().p2_correction[c]) ++corrections;
  }
  // Expected corrections ~ 400 * (1 - (x+1)/64) ~ 360.
  EXPECT_GT(corrections, 300u);
  EXPECT_LT(corrections, 399u);
}

TEST(SecureSumTest, P1ShareIsUniformlyDistributed) {
  // Theorem: s1 is uniform on Z_S regardless of the inputs. Use a tiny S
  // and chi-square the observed s1 values.
  const uint64_t s_small = 64;
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(4);
  cfg.modulus_s = BigUInt(s_small);
  std::vector<uint64_t> counts(s_small, 0);
  SumFixture f(3);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
  std::vector<std::vector<uint64_t>> inputs(3,
                                            std::vector<uint64_t>(2000, 1));
  inputs[2].assign(2000, 2);
  auto shares = proto.RunProtocol1(inputs, f.RngPtrs(), "t.").ValueOrDie();
  for (const auto& s1 : shares.s1) {
    ++counts[s1.ToUint64().ValueOrDie()];
  }
  // 63 dof: 99.99th percentile ~ 120.
  double chi2 = ChiSquaredUniform(counts);
  EXPECT_LT(chi2, 125.0);
}

TEST(SecureSumTest, ViewsRecordThirdPartyObservations) {
  SumFixture f(2);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                          MakeConfig(50, 64));
  std::vector<std::vector<uint64_t>> inputs{{7, 13}, {11, 17}};
  ASSERT_TRUE(proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(),
                                 "t.")
                  .ok());
  const auto& v = proto.views();
  EXPECT_EQ(v.third_party_s1.size(), 2u);
  EXPECT_EQ(v.third_party_masked_s2.size(), 2u);
  EXPECT_EQ(v.comparison_bits.size(), 2u);
  EXPECT_EQ(v.p2_correction.size(), 2u);
}

TEST(SecureSumTest, SecretPermutationShufflesThirdPartyOrder) {
  // With distinctive per-counter sums and the permutation on, the third
  // party's comparison-bit pattern should not align with counter order.
  // We verify the permutation is applied by checking reconstruction remains
  // correct while the transmitted s1 differ from the held s1 in order.
  SumFixture f(2);
  SecureSumConfig cfg = MakeConfig(1000, 64);
  cfg.use_secret_permutation = true;
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
  std::vector<std::vector<uint64_t>> inputs(
      2, std::vector<uint64_t>(64));
  for (size_t c = 0; c < 64; ++c) {
    inputs[0][c] = c;
    inputs[1][c] = c;
  }
  auto shares = proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(),
                                   "t.")
                    .ValueOrDie();
  for (size_t c = 0; c < 64; ++c) {
    ASSERT_EQ(shares.At(c).Reconstruct(), BigInt(BigUInt(2 * c)));
  }
  size_t same_position = 0;
  for (size_t c = 0; c < 64; ++c) {
    if (proto.views().third_party_s1[c] == shares.s1[c]) ++same_position;
  }
  EXPECT_LT(same_position, 16u);  // A permutation fixes ~1 point on average.
}

TEST(SecureSumTest, EmpiricalLeakageWithinTheorem41Bounds) {
  // Run Protocol 2 many times with x = 5, A = 10, S = 256 and compare the
  // frequencies at which P2/P3 learn a bound with the closed-form rates.
  const uint64_t x = 5, bound = 10, s_val = 256;
  size_t p2_lower = 0, p2_upper = 0, p3_leaks = 0;
  const size_t kTrials = 4000;
  SumFixture f(2);
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(bound);
  cfg.modulus_s = BigUInt(s_val);
  cfg.use_secret_permutation = false;
  for (size_t t = 0; t < kTrials; ++t) {
    SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
    std::vector<std::vector<uint64_t>> inputs{{2}, {3}};
    auto shares =
        proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(), "t.")
            .ValueOrDie();
    const auto& v = proto.views();
    // Reconstruct s2 before correction to classify P2's observation.
    BigUInt s2_pre = v.p2_correction[0]
                         ? (shares.s2[0] + BigInt(BigUInt(s_val))).magnitude()
                         : shares.s2[0].magnitude();
    LeakKind p2 = ClassifyP2Observation(s2_pre, v.p2_correction[0],
                                        BigUInt(bound));
    p2_lower += p2 == LeakKind::kLowerBound;
    p2_upper += p2 == LeakKind::kUpperBound;
    // P3 observed y = s1 + s2 + r; z = x + r = y mod S... y or y - S.
    BigUInt y = v.third_party_s1[0] + v.third_party_masked_s2[0];
    BigUInt z = (y >= BigUInt(s_val)) ? y - BigUInt(s_val) : y;
    LeakKind p3 = ClassifyP3Observation(z, BigUInt(bound), BigUInt(s_val));
    p3_leaks += p3 != LeakKind::kNothing;
  }
  auto probs =
      ComputeLeakageProbabilities(x, BigUInt(bound), BigUInt(s_val))
          .ValueOrDie();
  double p2_lower_rate = static_cast<double>(p2_lower) / kTrials;
  double p2_upper_rate = static_cast<double>(p2_upper) / kTrials;
  double p3_rate = static_cast<double>(p3_leaks) / kTrials;
  // Theorem rates: p2_lower = 5/256 ~ 0.0195, p2_upper = 5/256.
  EXPECT_NEAR(p2_lower_rate, probs.p2_lower, 0.01);
  EXPECT_NEAR(p2_upper_rate, probs.p2_upper, 0.01);
  EXPECT_LE(p3_rate, probs.p3_lower_max + probs.p3_upper_max + 0.01);
}

TEST(SecureSumTest, InputValidation) {
  SumFixture f(3);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                          MakeConfig(10, 64));
  std::vector<std::vector<uint64_t>> ragged{{1, 2}, {3}, {4, 5}};
  EXPECT_FALSE(proto.RunProtocol1(ragged, f.RngPtrs(), "t.").ok());
  std::vector<std::vector<uint64_t>> too_big{{9}, {9}, {9}};  // Sum 27 > 10.
  EXPECT_FALSE(proto.RunProtocol1(too_big, f.RngPtrs(), "t.").ok());
  // Third party must not be P1 or P2.
  SecureSumProtocol bad(&f.net, f.providers, f.providers[0],
                        MakeConfig(10, 64));
  std::vector<std::vector<uint64_t>> inputs(3, std::vector<uint64_t>{1});
  EXPECT_FALSE(bad.RunProtocol1(inputs, f.RngPtrs(), "t.").ok());
  // Modulus must dwarf the bound.
  SecureSumConfig tiny;
  tiny.input_bound_a = BigUInt(100);
  tiny.modulus_s = BigUInt(128);
  SecureSumProtocol tiny_proto(&f.net, f.providers, f.ThirdParty(), tiny);
  EXPECT_FALSE(tiny_proto.RunProtocol1(inputs, f.RngPtrs(), "t.").ok());
}

TEST(SecureSumTest, RecommendedModulusSatisfiesGuidance) {
  BigUInt a(1000);
  BigUInt s = RecommendedModulus(a, 5000, 40);
  // S >= A(1 + 2 * 5000 * 2^40).
  BigUInt target = a * (BigUInt(1) + (BigUInt(2) * BigUInt(5000) << 40));
  EXPECT_GE(s, target);
  // Power of two.
  EXPECT_EQ(s, BigUInt::PowerOfTwo(s.BitLength() - 1));
}

TEST(SecureSumTest, LargeModulusMultiLimbShares) {
  // Hundreds-of-bits S exercises the BigUInt share paths end to end.
  SumFixture f(3);
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(1u << 20);
  cfg.modulus_s = BigUInt::PowerOfTwo(300);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
  std::vector<std::vector<uint64_t>> inputs{{123456}, {654321}, {111111}};
  auto shares = proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(),
                                   "t.")
                    .ValueOrDie();
  EXPECT_EQ(shares.At(0).Reconstruct(), BigInt(BigUInt(888888)));
  EXPECT_GT(shares.s1[0].BitLength(), 200u);  // Shares really are huge.
}

// Runs Protocol 2 over a fixed 37-counter input grid (an all-zero counter,
// a counter at the bound A, the rest random) and hashes every transmitted
// frame, the packed s1/s2 outputs and every recorded view.
uint64_t Protocol2Digest(size_t m, const BigUInt& s, bool permute) {
  BasicSumFixture<DigestNetwork> f(m);
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(1000);
  cfg.modulus_s = s;
  cfg.use_secret_permutation = permute;
  constexpr size_t kCount = 37;
  Rng input_rng(90 + m);
  std::vector<std::vector<uint64_t>> inputs(m,
                                            std::vector<uint64_t>(kCount, 0));
  inputs[0][1] = 1000;
  for (size_t c = 2; c < kCount; ++c) {
    for (size_t k = 0; k < m; ++k) inputs[k][c] = input_rng.UniformU64(1000 / m);
  }
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
  auto shares = proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(),
                                   "t.")
                    .ValueOrDie();
  BinaryWriter w;
  for (const auto& v : shares.s1) WriteBigUInt(&w, v);
  for (const auto& v : shares.s2) WriteBigInt(&w, v);
  const auto& views = proto.views();
  for (const auto& v : views.third_party_s1) WriteBigUInt(&w, v);
  for (const auto& v : views.third_party_masked_s2) WriteBigUInt(&w, v);
  for (bool b : views.comparison_bits) w.WriteU8(b ? 1 : 0);
  for (bool b : views.p2_correction) w.WriteU8(b ? 1 : 0);
  for (const auto& row : views.player_share_vectors) {
    for (const auto& v : row) WriteBigUInt(&w, v);
  }
  Fnv1a fnv;
  fnv.AddU64(f.net.digest());
  fnv.Add(w.TakeBuffer());
  return fnv.value();
}

TEST(SecureSumTest, Protocol2TranscriptMatchesPinnedDigest) {
  struct Case {
    size_t m;
    const char* s_hex;
    bool permute;
    uint64_t digest;
  };
  // Recorded from the BigUInt-per-share implementation; any change to an
  // RNG draw, a wire byte, an output or a view moves the digest.
  const Case kCases[] = {
      {2, "10000000000", true, 0xb2003d7fba317bafull},
      {2, "10000000000", false, 0xd0290bc574911770ull},
      {2, "8000000000000000", true, 0x8e31811a4de9b114ull},
      {2, "8000000000000000", false, 0x33c3fdf3de73c9beull},
      {2, "10000000000000000", true, 0xeb9a1ebd99d22e5bull},
      {2, "10000000000000000", false, 0x223aef6bfea13b31ull},
      {2, "400000000000000000000000000000000", true, 0x8252e8c04ff50fe7ull},
      {2, "400000000000000000000000000000000", false, 0x7b1f0139f24bc391ull},
      {3, "10000000000", true, 0x81cff4f3153ca463ull},
      {3, "10000000000", false, 0xa49231b3a5b8e439ull},
      {3, "8000000000000000", true, 0x4049a7140b6718f7ull},
      {3, "8000000000000000", false, 0xd0ea395b798fe761ull},
      {3, "10000000000000000", true, 0xb50bb474fc59abeaull},
      {3, "10000000000000000", false, 0x8329bb2f78af1cf0ull},
      {3, "400000000000000000000000000000000", true, 0x645fdc6229d6d148ull},
      {3, "400000000000000000000000000000000", false, 0x73fc66d6eda66a4cull},
      {4, "10000000000", true, 0x76f72672ee68d9f0ull},
      {4, "10000000000", false, 0x4d8272ca6cd088a6ull},
      {4, "8000000000000000", true, 0xf643026fe0bd2ed5ull},
      {4, "8000000000000000", false, 0xe54a741bcfa52268ull},
      {4, "10000000000000000", true, 0xbb28a45ef7cd3f7aull},
      {4, "10000000000000000", false, 0x7d7abcd17edd5daull},
      {4, "400000000000000000000000000000000", true, 0x3318844628679c55ull},
      {4, "400000000000000000000000000000000", false, 0xdd399c613ace2815ull},
      // A modulus that is not a power of two exercises the mod-S reduction.
      {3, "fffffffffffffffffffffffd", true, 0xbaf3113773b07493ull},
  };
  for (const Case& c : kCases) {
    const BigUInt s = BigUInt::FromHexString(c.s_hex).ValueOrDie();
    const uint64_t got = Protocol2Digest(c.m, s, c.permute);
    EXPECT_EQ(got, c.digest) << "m=" << c.m << " S=0x" << c.s_hex
                             << " permute=" << c.permute << " got 0x"
                             << std::hex << got;
  }
}

// A peer that speaks the wire format but lies: replaces value 0 of the first
// share vector `from` sends under secure-sum step `step` with `value`, then
// re-seals the envelope so the frame still validates.
class ShareTamperNetwork : public Network {
 public:
  void Arm(PartyId from, uint16_t step, BigUInt value) {
    from_ = from;
    step_ = step;
    value_ = std::move(value);
    armed_ = true;
  }

 protected:
  Status Transmit(PartyId from, PartyId to, std::vector<uint8_t> frame,
                  bool front) override {
    if (armed_ && from == from_) {
      Envelope env = OpenEnvelope(frame).ValueOrDie();
      if (env.protocol_id == ProtocolId::kSecureSum && env.step == step_) {
        armed_ = false;
        BinaryReader r(env.payload);
        uint64_t count = 0;
        EXPECT_TRUE(r.ReadCount(&count).ok());
        std::vector<BigUInt> values(count);
        for (auto& v : values) EXPECT_TRUE(ReadBigUInt(&r, &v).ok());
        values[0] = value_;
        BinaryWriter w;
        w.WriteVarU64(count);
        for (const auto& v : values) WriteBigUInt(&w, v);
        frame = SealEnvelope(env.protocol_id, env.step, env.sender, env.seq,
                             w.TakeBuffer());
      }
    }
    return Network::Transmit(from, to, std::move(frame), front);
  }

 private:
  bool armed_ = false;
  PartyId from_ = 0;
  uint16_t step_ = 0;
  BigUInt value_;
};

TEST(SecureSumTest, RejectsOutOfRangeShares) {
  // Step tags: 2 = Prot1 pairwise shares, 4 = Prot1 fold into P2,
  // 3 = Prot2 vectors to the third party. Sender index: 0 = P1, 1 = P2,
  // 2 = P3. Each smallest out-of-range value must fail the run with a
  // ProtocolError; the largest in-range one must still be accepted.
  struct Case {
    size_t sender;
    uint16_t step;
    int s_multiple;  // The substituted value is s_multiple * S + offset.
    int offset;
    bool rejected;
  };
  const Case kCases[] = {
      {0, 2, 1, 0, true},  {0, 2, 1, -1, false}, {2, 4, 1, 0, true},
      {2, 4, 1, -1, false}, {0, 3, 1, 0, true},  {0, 3, 1, -1, false},
      {1, 3, 2, 0, true},  {1, 3, 2, -1, false},
  };
  for (size_t s_bits : {63u, 64u, 130u}) {
    for (const Case& c : kCases) {
      BasicSumFixture<ShareTamperNetwork> f(3);
      const SecureSumConfig cfg = MakeConfig(1000, s_bits);
      BigUInt value = cfg.modulus_s * BigUInt(static_cast<uint64_t>(c.s_multiple));
      if (c.offset < 0) value -= BigUInt(1);
      f.net.Arm(f.providers[c.sender], c.step, value);
      SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
      std::vector<std::vector<uint64_t>> inputs(3, {5, 7, 11});
      auto result = proto.RunProtocol2(inputs, f.RngPtrs(),
                                       f.pair_secret.get(), "t.");
      const std::string where = "S=2^" + std::to_string(s_bits) +
                                " sender=P" + std::to_string(c.sender + 1) +
                                " step=" + std::to_string(c.step) +
                                " value=" + value.ToHexString();
      if (c.rejected) {
        ASSERT_FALSE(result.ok()) << where;
        EXPECT_EQ(result.status().code(), StatusCode::kProtocolError) << where;
      } else {
        EXPECT_TRUE(result.ok()) << where << ": " << result.status().ToString();
      }
      EXPECT_EQ(f.net.PendingCount(), 0u) << where;
    }
  }
}

}  // namespace
}  // namespace psi
