// Compilation test for the umbrella header: every public header must be
// self-contained and IWYU-clean enough to coexist in one translation unit,
// and a symbol from each subsystem must be reachable through it.

#include "psi.h"

#include <gtest/gtest.h>

namespace psi {
namespace {

TEST(UmbrellaHeaderTest, EverySubsystemReachable) {
  // common
  EXPECT_TRUE(Status::OK().ok());
  Rng rng(1);
  EXPECT_LT(rng.UniformReal(), 1.0);
  // bigint
  EXPECT_EQ(BigUInt(2) + BigUInt(3), BigUInt(5));
  EXPECT_TRUE(MontgomeryContext::Create(BigUInt(101)).ok());
  // crypto
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string("abc"))).size(), 64u);
  EXPECT_EQ(ShiftCipher(3, 10).Encrypt(9), 2u);
  // net
  Network net;
  EXPECT_EQ(net.RegisterParty("X"), 0u);
  // graph
  SocialGraph g(3);
  EXPECT_TRUE(g.AddArc(0, 1).ok());
  EXPECT_EQ(ErdosRenyiArcs(&rng, 3, 2).ValueOrDie().num_arcs(), 2u);
  // actionlog
  ActionLog log;
  log.Add({0, 0, 1});
  EXPECT_EQ(ComputeActionCounts(log, 3)[0], 1u);
  // influence
  EXPECT_EQ(TopKUsers({0.5, 0.9}, 1)[0], 1u);
  EXPECT_TRUE(KendallTau({1.0, 2.0}, {1.0, 2.0}).ok());
  // mpc
  EXPECT_EQ(AllOrderedPairs(3).size(), 6u);
  IntegerShares shares{BigUInt(7), BigInt(-3)};
  EXPECT_EQ(shares.Reconstruct(), BigInt(4));
  // privacy
  EXPECT_EQ(UniformPrior(10).size(), 11u);
  EXPECT_TRUE(
      ComputeLeakageProbabilities(1, BigUInt(10), BigUInt(1000)).ok());
}

}  // namespace
}  // namespace psi
