#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/modular.h"

namespace psi {
namespace {

class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    static Rng rng(101);
    static auto kp = RsaGenerateKeyPair(&rng, 512).ValueOrDie();
    key_pair_ = &kp;
    rng_ = &rng;
  }
  static RsaKeyPair* key_pair_;
  static Rng* rng_;
};

RsaKeyPair* RsaTest::key_pair_ = nullptr;
Rng* RsaTest::rng_ = nullptr;

TEST_F(RsaTest, KeyShapes) {
  EXPECT_EQ(key_pair_->public_key.ModulusBits(), 512u);
  EXPECT_EQ(key_pair_->public_key.e, BigUInt(65537));
  EXPECT_EQ(key_pair_->public_key.CiphertextBytes(), 64u);
  EXPECT_EQ(key_pair_->private_key.p * key_pair_->private_key.q,
            key_pair_->public_key.n);
}

TEST_F(RsaTest, EdTimesDIsOneModPhi) {
  const auto& priv = key_pair_->private_key;
  BigUInt phi = (priv.p - BigUInt(1)) * (priv.q - BigUInt(1));
  EXPECT_TRUE(ModMul(key_pair_->public_key.e, priv.d, phi).IsOne());
}

TEST_F(RsaTest, EncryptDecryptRoundTripRandomized) {
  for (int i = 0; i < 50; ++i) {
    BigUInt m = BigUInt::RandomBelow(rng_, key_pair_->public_key.n);
    BigUInt c = RsaEncrypt(key_pair_->public_key, m).ValueOrDie();
    EXPECT_EQ(RsaDecrypt(key_pair_->private_key, c).ValueOrDie(), m);
  }
}

TEST_F(RsaTest, EdgePlaintexts) {
  for (uint64_t m : {0ull, 1ull, 2ull}) {
    BigUInt c = RsaEncrypt(key_pair_->public_key, BigUInt(m)).ValueOrDie();
    EXPECT_EQ(RsaDecrypt(key_pair_->private_key, c).ValueOrDie(), BigUInt(m));
  }
  BigUInt n_minus_1 = key_pair_->public_key.n - BigUInt(1);
  BigUInt c = RsaEncrypt(key_pair_->public_key, n_minus_1).ValueOrDie();
  EXPECT_EQ(RsaDecrypt(key_pair_->private_key, c).ValueOrDie(), n_minus_1);
}

TEST_F(RsaTest, RejectsOversizedOperands) {
  EXPECT_FALSE(RsaEncrypt(key_pair_->public_key, key_pair_->public_key.n).ok());
  EXPECT_FALSE(RsaDecrypt(key_pair_->private_key, key_pair_->public_key.n).ok());
}

TEST(RsaDecryptTest, MatchesHeapPathAcrossKeySizes) {
  // 512- and 1024-bit keys have 4- and 8-limb CRT halves, which run on the
  // fixed-width engine. The 192- and 320-bit halves of 384- and 640-bit
  // keys match no engine width and keep the heap Montgomery path; the
  // 64-bit halves of a 128-bit key take ModPow's plain loop. Every result
  // must equal the heap path's and the non-CRT c^d mod n.
  Rng rng(102);
  for (size_t bits : {128u, 384u, 512u, 640u, 1024u}) {
    const RsaPrivateKey key = RsaGenerateKeyPair(&rng, bits)
                                  .ValueOrDie()
                                  .private_key;
    std::vector<BigUInt> ciphertexts{BigUInt(0), BigUInt(1), key.p, key.q,
                                     key.n - BigUInt(1)};
    for (int i = 0; i < 4; ++i) {
      ciphertexts.push_back(BigUInt::RandomBelow(&rng, key.n));
    }
    for (const BigUInt& c : ciphertexts) {
      const BigUInt fast = RsaDecrypt(key, c).ValueOrDie();
      ScopedHeapOnlyModPow heap_only;
      EXPECT_EQ(fast, RsaDecrypt(key, c).ValueOrDie())
          << bits << "-bit key, c = " << c.ToHexString();
      EXPECT_EQ(fast, ModPow(c, key.d, key.n))
          << bits << "-bit key, c = " << c.ToHexString();
    }
  }
}

TEST_F(RsaTest, MultiplicativeHomomorphism) {
  // Textbook RSA: E(a)*E(b) = E(ab) — the malleability the randomized
  // padding in Protocol 6 works around.
  BigUInt a(12345), b(67890);
  const auto& pub = key_pair_->public_key;
  BigUInt ca = RsaEncrypt(pub, a).ValueOrDie();
  BigUInt cb = RsaEncrypt(pub, b).ValueOrDie();
  BigUInt cab = ModMul(ca, cb, pub.n);
  EXPECT_EQ(RsaDecrypt(key_pair_->private_key, cab).ValueOrDie(), a * b);
}

TEST_F(RsaTest, GenerateRejectsBadSizes) {
  Rng rng(5);
  EXPECT_FALSE(RsaGenerateKeyPair(&rng, 64).ok());
  EXPECT_FALSE(RsaGenerateKeyPair(&rng, 513).ok());
}

TEST_F(RsaTest, DistinctKeysFromDistinctSeeds) {
  Rng r1(1), r2(2);
  auto k1 = RsaGenerateKeyPair(&r1, 256).ValueOrDie();
  auto k2 = RsaGenerateKeyPair(&r2, 256).ValueOrDie();
  EXPECT_NE(k1.public_key.n, k2.public_key.n);
}

TEST_F(RsaTest, HybridRoundTrip) {
  for (size_t len : {0u, 1u, 100u, 5000u}) {
    std::vector<uint8_t> msg(len);
    rng_->FillBytes(msg.data(), msg.size());
    auto ct = HybridEncrypt(key_pair_->public_key, msg, rng_).ValueOrDie();
    EXPECT_EQ(HybridDecrypt(key_pair_->private_key, ct).ValueOrDie(), msg);
  }
}

TEST_F(RsaTest, HybridIsRandomized) {
  std::vector<uint8_t> msg(100, 7);
  auto c1 = HybridEncrypt(key_pair_->public_key, msg, rng_).ValueOrDie();
  auto c2 = HybridEncrypt(key_pair_->public_key, msg, rng_).ValueOrDie();
  EXPECT_NE(c1.encapsulated_key, c2.encapsulated_key);
  EXPECT_NE(c1.payload, c2.payload);
}

TEST_F(RsaTest, HybridCiphertextSizeIsOneRsaBlockPlusPayload) {
  std::vector<uint8_t> msg(1000, 1);
  auto ct = HybridEncrypt(key_pair_->public_key, msg, rng_).ValueOrDie();
  // Encapsulated key <= one RSA block; payload == plaintext size (stream).
  EXPECT_EQ(ct.payload.size(), msg.size());
  EXPECT_LE(ct.encapsulated_key.SerializedSize(),
            key_pair_->public_key.CiphertextBytes() + 16);
}

TEST_F(RsaTest, HybridRejectsTinyModulus) {
  Rng rng(9);
  auto small = RsaGenerateKeyPair(&rng, 256).ValueOrDie();
  std::vector<uint8_t> msg(10, 1);
  EXPECT_FALSE(HybridEncrypt(small.public_key, msg, &rng).ok());
}

TEST_F(RsaTest, HybridDecryptRejectsBadNonce) {
  std::vector<uint8_t> msg(10, 1);
  auto ct = HybridEncrypt(key_pair_->public_key, msg, rng_).ValueOrDie();
  ct.nonce.pop_back();
  EXPECT_FALSE(HybridDecrypt(key_pair_->private_key, ct).ok());
}

}  // namespace
}  // namespace psi
