#include "mpc/segmented_influence.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"
#include "omega_tamper_network.h"
#include "transcript_digest.h"

namespace psi {
namespace {

template <typename Net = Network>
struct BasicSegFixture {
  BasicSegFixture(size_t num_providers, uint32_t num_segments, uint64_t seed = 71)
      : rng(seed) {
    graph = std::make_unique<SocialGraph>(
        ErdosRenyiArcs(&rng, 25, 120).ValueOrDie());
    auto truth = GroundTruthInfluence::Random(&rng, *graph, 0.1, 0.7);
    CascadeParams params;
    params.num_actions = 60;
    log = GenerateCascades(&rng, *graph, truth, params).ValueOrDie();
    provider_logs =
        ExclusivePartition(&rng, log, num_providers).ValueOrDie();
    segments.resize(60);
    for (auto& g : segments) {
      g = static_cast<uint32_t>(rng.UniformU64(num_segments));
    }

    host = net.RegisterParty("H");
    for (size_t k = 0; k < num_providers; ++k) {
      providers.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
      rng_store.push_back(std::make_unique<Rng>(seed + k));
    }
    host_rng = std::make_unique<Rng>(seed + 100);
    pair_secret = std::make_unique<Rng>(seed + 200);
  }

  std::vector<Rng*> RngPtrs() {
    std::vector<Rng*> out;
    for (auto& r : rng_store) out.push_back(r.get());
    return out;
  }

  Rng rng;
  std::unique_ptr<SocialGraph> graph;
  ActionLog log;
  std::vector<ActionLog> provider_logs;
  std::vector<uint32_t> segments;
  Net net;
  PartyId host;
  std::vector<PartyId> providers;
  std::vector<std::unique_ptr<Rng>> rng_store;
  std::unique_ptr<Rng> host_rng;
  std::unique_ptr<Rng> pair_secret;
};

using SegFixture = BasicSegFixture<>;

TEST(SegmentedInfluenceTest, OmegaArcPastTheUsersIsAProtocolError) {
  // Each provider counts over its own Omega copy, so an arc source >= n in
  // one copy must end the run cleanly instead of indexing past the users.
  BasicSegFixture<OmegaTamperNetwork> f(3, 2);
  f.net.tamper_from = f.host;
  f.net.tamper_to = f.providers[1];
  f.net.bad_source = static_cast<NodeId>(f.graph->num_nodes() + 3);
  Protocol4Config cfg;
  SegmentedInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto result = proto.Run(*f.graph, 60, f.provider_logs, f.segments, 2,
                          f.host_rng.get(), f.RngPtrs(), f.pair_secret.get());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError)
      << result.status().ToString();
  EXPECT_EQ(f.net.PendingCount(), 0u);
}

TEST(SegmentedInfluenceTest, TranscriptMatchesPinnedDigest) {
  // Every transmitted frame plus every per-segment estimate, against a
  // digest recorded from an earlier build.
  BasicSegFixture<DigestNetwork> f(3, 3);
  Protocol4Config cfg;
  cfg.h = 4;
  SegmentedInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 60, f.provider_logs, f.segments, 3,
                          f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  Fnv1a fnv;
  fnv.AddU64(f.net.digest());
  for (const auto& li : secure.per_segment) {
    for (double p : li.p) fnv.AddU64(std::bit_cast<uint64_t>(p));
  }
  EXPECT_EQ(fnv.value(), 0x016bd17bb18c0256ull) << std::hex << fnv.value();
}

TEST(SegmentedInfluenceTest, MatchesPlaintextPerSegment) {
  SegFixture f(3, 4);
  Protocol4Config cfg;
  cfg.h = 4;
  SegmentedInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 60, f.provider_logs, f.segments, 4,
                          f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  auto plain = ComputeSegmentedLinkInfluence(f.log, f.graph->arcs(), 25, 4,
                                             f.segments, 4)
                   .ValueOrDie();
  ASSERT_EQ(secure.num_segments(), 4u);
  for (uint32_t g = 0; g < 4; ++g) {
    for (size_t e = 0; e < plain.per_segment[g].p.size(); ++e) {
      EXPECT_NEAR(secure.per_segment[g].p[e], plain.per_segment[g].p[e],
                  1e-9)
          << "segment " << g << " arc " << e;
    }
  }
  EXPECT_EQ(f.net.PendingCount(), 0u);
}

TEST(SegmentedInfluenceTest, KeepsProtocol4RoundCount) {
  SegFixture f(3, 5);
  Protocol4Config cfg;
  SegmentedInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  ASSERT_TRUE(proto.Run(*f.graph, 60, f.provider_logs, f.segments, 5,
                        f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                  .ok());
  // Same eight rounds and m^2+m+7 messages as the unsegmented protocol:
  // segmentation only widens the batches.
  EXPECT_EQ(f.net.Report().num_rounds, 8u);
  EXPECT_EQ(f.net.Report().num_messages, 3u * 3u + 3u + 7u);
}

TEST(SegmentedInfluenceTest, OneSegmentMatchesProtocol4Semantics) {
  SegFixture f(2, 1);
  std::fill(f.segments.begin(), f.segments.end(), 0u);
  Protocol4Config cfg;
  SegmentedInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 60, f.provider_logs, f.segments, 1,
                          f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  auto plain =
      ComputeLinkInfluence(f.log, f.graph->arcs(), 25, cfg.h).ValueOrDie();
  for (size_t e = 0; e < plain.p.size(); ++e) {
    EXPECT_NEAR(secure.per_segment[0].p[e], plain.p[e], 1e-9);
  }
}

TEST(SegmentedInfluenceTest, Validation) {
  SegFixture f(2, 2);
  Protocol4Config cfg;
  SegmentedInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  EXPECT_FALSE(proto.Run(*f.graph, 60, f.provider_logs, f.segments, 0,
                         f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                   .ok());
  Protocol4Config wcfg;
  wcfg.weights = TemporalWeights::Uniform(4);
  SegmentedInfluenceProtocol wproto(&f.net, f.host, f.providers, wcfg);
  EXPECT_EQ(wproto
                .Run(*f.graph, 60, f.provider_logs, f.segments, 2,
                     f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace psi
