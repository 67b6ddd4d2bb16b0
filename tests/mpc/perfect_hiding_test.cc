#include "mpc/perfect_hiding.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <set>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"
#include "transcript_digest.h"

namespace psi {
namespace {

TEST(PerfectHidingTest, AllPairsIndexIsABijection) {
  const size_t n = 9;
  auto pairs = AllOrderedPairs(n);
  ASSERT_EQ(pairs.size(), n * (n - 1));
  std::set<size_t> seen;
  for (const Arc& a : pairs) {
    size_t idx = AllPairsIndex(a.from, a.to, n);
    ASSERT_LT(idx, pairs.size());
    EXPECT_TRUE(seen.insert(idx).second);
    // The canonical list itself is indexed consistently.
    EXPECT_EQ(pairs[idx].from, a.from);
    EXPECT_EQ(pairs[idx].to, a.to);
  }
}

TEST(PerfectHidingTest, MatchesPlaintextOnSmallGraph) {
  Rng rng(33);
  auto graph = ErdosRenyiArcs(&rng, 10, 30).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.5);
  CascadeParams params;
  params.num_actions = 30;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  auto logs = ExclusivePartition(&rng, log, 2).ValueOrDie();

  Network net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2")};
  Rng hr(1), p1(2), p2(3), secret(4);
  std::vector<Rng*> rngs{&p1, &p2};

  PerfectHidingConfig cfg;
  cfg.h = 4;
  PerfectHidingLinkInfluenceProtocol proto(&net, host, providers, cfg);
  auto secure = proto.Run(graph, 30, logs, &hr, rngs, &secret).ValueOrDie();

  auto plain = ComputeLinkInfluence(log, graph.arcs(), 10, 4).ValueOrDie();
  ASSERT_EQ(secure.p.size(), plain.p.size());
  for (size_t e = 0; e < plain.p.size(); ++e) {
    EXPECT_NEAR(secure.p[e], plain.p[e], 1e-9) << "arc " << e;
  }
  EXPECT_EQ(net.PendingCount(), 0u);
}

TEST(PerfectHidingTest, TranscriptMatchesPinnedDigest) {
  // Every transmitted frame (OT rounds included) plus the estimates,
  // against a digest recorded from an earlier build.
  Rng rng(36);
  auto graph = ErdosRenyiArcs(&rng, 8, 20).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.5);
  CascadeParams params;
  params.num_actions = 20;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  auto logs = ExclusivePartition(&rng, log, 3).ValueOrDie();

  DigestNetwork net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2"),
                                 net.RegisterParty("P3")};
  Rng hr(1), p1(2), p2(3), p3(4), secret(5);
  std::vector<Rng*> rngs{&p1, &p2, &p3};
  PerfectHidingConfig cfg;
  cfg.h = 3;
  PerfectHidingLinkInfluenceProtocol proto(&net, host, providers, cfg);
  auto secure = proto.Run(graph, 20, logs, &hr, rngs, &secret).ValueOrDie();
  Fnv1a fnv;
  fnv.AddU64(net.digest());
  for (double p : secure.p) fnv.AddU64(std::bit_cast<uint64_t>(p));
  EXPECT_EQ(fnv.value(), 0xf6a697602fb9e8cfull) << std::hex << fnv.value();
}

TEST(PerfectHidingTest, ProvidersNeverReceiveArcInformation) {
  // Structural property: in this variant no message from H to the providers
  // exists at all (the pair list is public), so the providers' combined
  // inbound traffic from H is zero bytes.
  Rng rng(34);
  auto graph = ErdosRenyiArcs(&rng, 8, 20).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.5);
  CascadeParams params;
  params.num_actions = 20;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  auto logs = ExclusivePartition(&rng, log, 2).ValueOrDie();

  Network net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2")};
  Rng hr(1), p1(2), p2(3), secret(4);
  std::vector<Rng*> rngs{&p1, &p2};
  PerfectHidingConfig cfg;
  PerfectHidingLinkInfluenceProtocol proto(&net, host, providers, cfg);
  ASSERT_TRUE(proto.Run(graph, 20, logs, &hr, rngs, &secret).ok());
  // H sent only the OT round-2 blinded choices, which are uniform group
  // elements: 2 messages (one per OT batch), independent of E's shape.
  uint64_t host_sent = net.BytesSentBy(host);
  EXPECT_GT(host_sent, 0u);
  // Re-run with a very different arc count; H's sent bytes per arc must
  // scale only with |E| (one blinded element each), never with structure.
  Rng rng2(35);
  auto graph2 = ErdosRenyiArcs(&rng2, 8, 40).ValueOrDie();
  auto truth2 = GroundTruthInfluence::Uniform(graph2, 0.5);
  auto log2 = GenerateCascades(&rng2, graph2, truth2, params).ValueOrDie();
  auto logs2 = ExclusivePartition(&rng2, log2, 2).ValueOrDie();
  Network net2;
  PartyId host2 = net2.RegisterParty("H");
  std::vector<PartyId> providers2{net2.RegisterParty("P1"),
                                  net2.RegisterParty("P2")};
  Rng hr2(1), p1b(2), p2b(3), secret2(4);
  std::vector<Rng*> rngs2{&p1b, &p2b};
  PerfectHidingLinkInfluenceProtocol proto2(&net2, host2, providers2, cfg);
  ASSERT_TRUE(proto2.Run(graph2, 20, logs2, &hr2, rngs2, &secret2).ok());
  double per_arc_1 = static_cast<double>(host_sent) / 20.0;
  double per_arc_2 = static_cast<double>(net2.BytesSentBy(host2)) / 40.0;
  EXPECT_NEAR(per_arc_1, per_arc_2, per_arc_1 * 0.2);
}

TEST(PerfectHidingTest, Validation) {
  Network net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1")};
  PerfectHidingConfig cfg;
  PerfectHidingLinkInfluenceProtocol one(&net, host, providers, cfg);
  SocialGraph g(5);
  Rng hr(1), p1(2), secret(3);
  EXPECT_FALSE(one.Run(g, 10, {ActionLog{}}, &hr, {&p1}, &secret).ok());
}

}  // namespace
}  // namespace psi
