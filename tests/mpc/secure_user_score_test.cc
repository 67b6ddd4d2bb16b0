#include "mpc/secure_user_score.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "actionlog/counters.h"
#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"
#include "transcript_digest.h"

namespace psi {
namespace {

template <typename Net = Network>
struct BasicScoreFixture {
  BasicScoreFixture(size_t num_providers, uint64_t seed = 23) : rng(seed) {
    graph = std::make_unique<SocialGraph>(
        ErdosRenyiArcs(&rng, 30, 140).ValueOrDie());
    auto truth = GroundTruthInfluence::Uniform(*graph, 0.5);
    CascadeParams params;
    params.num_actions = 20;
    log = GenerateCascades(&rng, *graph, truth, params).ValueOrDie();
    provider_logs = ExclusivePartition(&rng, log, num_providers).ValueOrDie();

    host = net.RegisterParty("H");
    for (size_t k = 0; k < num_providers; ++k) {
      providers.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
      rngs.push_back(std::make_unique<Rng>(seed * 10 + k));
    }
    host_rng = std::make_unique<Rng>(seed + 100);
    pair_secret = std::make_unique<Rng>(seed + 200);
  }

  std::vector<Rng*> RngPtrs() {
    std::vector<Rng*> out;
    for (auto& r : rngs) out.push_back(r.get());
    return out;
  }

  SecureScoreConfig Config(uint64_t tau = 12) {
    SecureScoreConfig cfg;
    cfg.protocol6.rsa_bits = 512;
    cfg.protocol6.encryption = Protocol6Config::EncryptionMode::kHybrid;
    cfg.score_options.tau = tau;
    return cfg;
  }

  Rng rng;
  std::unique_ptr<SocialGraph> graph;
  ActionLog log;
  std::vector<ActionLog> provider_logs;
  Net net;
  PartyId host;
  std::vector<PartyId> providers;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::unique_ptr<Rng> host_rng;
  std::unique_ptr<Rng> pair_secret;
};

using ScoreFixture = BasicScoreFixture<>;

TEST(SecureUserScoreTest, TranscriptMatchesPinnedDigest) {
  // Every transmitted frame, the revealed a_i and the scores, against a
  // digest recorded from an earlier build.
  BasicScoreFixture<DigestNetwork> f(3);
  auto cfg = f.Config();
  SecureUserScoreProtocol proto(&f.net, f.host, f.providers, cfg);
  auto scores = proto.Run(*f.graph, 20, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  Fnv1a fnv;
  fnv.AddU64(f.net.digest());
  for (uint64_t a : proto.revealed_action_counts()) fnv.AddU64(a);
  for (double s : scores) fnv.AddU64(std::bit_cast<uint64_t>(s));
  EXPECT_EQ(fnv.value(), 0xb343055c347ad529ull) << std::hex << fnv.value();
}

TEST(SecureUserScoreTest, ScoresMatchPlaintextBaseline) {
  ScoreFixture f(3);
  auto cfg = f.Config();
  SecureUserScoreProtocol proto(&f.net, f.host, f.providers, cfg);
  auto scores = proto.Run(*f.graph, 20, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  auto plain =
      ComputeUserInfluenceScores(*f.graph, f.log, cfg.score_options)
          .ValueOrDie();
  ASSERT_EQ(scores.size(), plain.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_NEAR(scores[i], plain[i], 1e-9) << "user " << i;
  }
}

TEST(SecureUserScoreTest, RevealedActionCountsAreExact) {
  ScoreFixture f(2);
  auto cfg = f.Config();
  SecureUserScoreProtocol proto(&f.net, f.host, f.providers, cfg);
  ASSERT_TRUE(proto.Run(*f.graph, 20, f.provider_logs, f.host_rng.get(),
                        f.RngPtrs(), f.pair_secret.get())
                  .ok());
  auto expected = ComputeActionCounts(f.log, f.graph->num_nodes());
  EXPECT_EQ(proto.revealed_action_counts(), expected);
}

TEST(SecureUserScoreTest, TauSweepConsistentWithPlaintext) {
  ScoreFixture f(2);
  for (uint64_t tau : {1u, 5u, 30u}) {
    auto cfg = f.Config(tau);
    SecureUserScoreProtocol proto(&f.net, f.host, f.providers, cfg);
    auto scores = proto.Run(*f.graph, 20, f.provider_logs, f.host_rng.get(),
                            f.RngPtrs(), f.pair_secret.get())
                      .ValueOrDie();
    auto plain =
        ComputeUserInfluenceScores(*f.graph, f.log, cfg.score_options)
            .ValueOrDie();
    for (size_t i = 0; i < scores.size(); ++i) {
      ASSERT_NEAR(scores[i], plain[i], 1e-9) << "tau " << tau;
    }
  }
}

TEST(SecureUserScoreTest, IncludeSelfIsRejected) {
  ScoreFixture f(2);
  auto cfg = f.Config();
  cfg.score_options.include_self = true;
  SecureUserScoreProtocol proto(&f.net, f.host, f.providers, cfg);
  auto result = proto.Run(*f.graph, 20, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST(SecureUserScoreTest, CleanMailboxesAfterRun) {
  ScoreFixture f(4);
  auto cfg = f.Config();
  SecureUserScoreProtocol proto(&f.net, f.host, f.providers, cfg);
  ASSERT_TRUE(proto.Run(*f.graph, 20, f.provider_logs, f.host_rng.get(),
                        f.RngPtrs(), f.pair_secret.get())
                  .ok());
  EXPECT_EQ(f.net.PendingCount(), 0u);
}

}  // namespace
}  // namespace psi
