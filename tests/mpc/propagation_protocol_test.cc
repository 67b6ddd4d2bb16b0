#include "mpc/propagation_protocol.h"

#include <gtest/gtest.h>

#include <memory>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"
#include "influence/user_score.h"
#include "transcript_digest.h"

namespace psi {
namespace {

template <typename Net = Network>
struct BasicP6Fixture {
  BasicP6Fixture(size_t num_providers, uint64_t seed = 13) : rng(seed) {
    graph = std::make_unique<SocialGraph>(
        ErdosRenyiArcs(&rng, 30, 140).ValueOrDie());
    auto truth = GroundTruthInfluence::Uniform(*graph, 0.5);
    CascadeParams params;
    params.num_actions = 25;
    log = GenerateCascades(&rng, *graph, truth, params).ValueOrDie();
    provider_logs = ExclusivePartition(&rng, log, num_providers).ValueOrDie();

    host = net.RegisterParty("H");
    for (size_t k = 0; k < num_providers; ++k) {
      providers.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
      rngs.push_back(std::make_unique<Rng>(seed * 10 + k));
    }
    host_rng = std::make_unique<Rng>(seed + 100);
  }

  std::vector<Rng*> RngPtrs() {
    std::vector<Rng*> out;
    for (auto& r : rngs) out.push_back(r.get());
    return out;
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
};

using P6Fixture = BasicP6Fixture<>;

Protocol6Config SmallRsaConfig(
    Protocol6Config::EncryptionMode mode =
        Protocol6Config::EncryptionMode::kHybrid) {
  Protocol6Config cfg;
  cfg.rsa_bits = 512;
  cfg.encryption = mode;
  return cfg;
}

void ExpectGraphsMatchPlaintext(const Protocol6Output& out,
                                const SocialGraph& graph,
                                const ActionLog& log, size_t num_actions) {
  ASSERT_EQ(out.graphs.size(), num_actions);
  for (ActionId a = 0; a < num_actions; ++a) {
    auto expected = BuildPropagationGraph(graph, log, a).ValueOrDie();
    ASSERT_EQ(out.graphs[a].num_arcs(), expected.num_arcs()) << "action " << a;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      auto got = out.graphs[a].OutArcs(v);
      auto want = expected.OutArcs(v);
      auto key = [](const LabeledArc& x) {
        return (static_cast<uint64_t>(x.to) << 32) | x.delta_t;
      };
      std::vector<uint64_t> gk, wk;
      for (const auto& x : got) gk.push_back(key(x));
      for (const auto& x : want) wk.push_back(key(x));
      std::sort(gk.begin(), gk.end());
      std::sort(wk.begin(), wk.end());
      ASSERT_EQ(gk, wk) << "action " << a << " node " << v;
    }
  }
}

TEST(Protocol6Test, HybridModeReconstructsAllPropagationGraphs) {
  P6Fixture f(3);
  PropagationGraphProtocol proto(&f.net, f.host, f.providers,
                                 SmallRsaConfig());
  auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  ExpectGraphsMatchPlaintext(out, *f.graph, f.log, 25);
}

TEST(Protocol6Test, PerIntegerModeReconstructsAllPropagationGraphs) {
  P6Fixture f(2);
  // Keep the size modest: per-integer RSA decrypts q * A ciphertexts.
  Protocol6Config cfg =
      SmallRsaConfig(Protocol6Config::EncryptionMode::kPerInteger);
  cfg.obfuscation_factor = 1.5;
  PropagationGraphProtocol proto(&f.net, f.host, f.providers, cfg);
  auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  ExpectGraphsMatchPlaintext(out, *f.graph, f.log, 25);
}

TEST(Protocol6Test, PackedModeReconstructsAllPropagationGraphs) {
  P6Fixture f(3);
  Protocol6Config cfg =
      SmallRsaConfig(Protocol6Config::EncryptionMode::kPackedInteger);
  PropagationGraphProtocol proto(&f.net, f.host, f.providers, cfg);
  auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  ExpectGraphsMatchPlaintext(out, *f.graph, f.log, 25);
}

TEST(Protocol6Test, SessionTranscriptMatchesPinnedDigest) {
  // One whole simulator session per RSA mode: every transmitted frame plus
  // every reconstructed arc, against digests recorded from an earlier
  // build. H's decryptions feed the graphs, so a wrong RSA-CRT result moves
  // the digest even where the wire bytes (provider-side encryptions) do not.
  const struct {
    Protocol6Config::EncryptionMode mode;
    uint64_t digest;
  } kCases[] = {
      {Protocol6Config::EncryptionMode::kPerInteger, 0x76875a495f03cf9aull},
      {Protocol6Config::EncryptionMode::kPackedInteger, 0x9e0ad5aab58caeacull},
  };
  for (const auto& c : kCases) {
    BasicP6Fixture<DigestNetwork> f(2);
    Protocol6Config cfg = SmallRsaConfig(c.mode);
    cfg.obfuscation_factor = 1.5;
    PropagationGraphProtocol proto(&f.net, f.host, f.providers, cfg);
    auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                         f.RngPtrs())
                   .ValueOrDie();
    Fnv1a fnv;
    fnv.AddU64(f.net.digest());
    for (const auto& pg : out.graphs) {
      for (NodeId v = 0; v < f.graph->num_nodes(); ++v) {
        for (const auto& arc : pg.OutArcs(v)) {
          fnv.AddU64(v);
          fnv.AddU64(arc.to);
          fnv.AddU64(arc.delta_t);
        }
      }
    }
    EXPECT_EQ(fnv.value(), c.digest) << std::hex << fnv.value();
  }
}

TEST(Protocol6Test, DamagedRsaKeyCheckpointIsSerializationError) {
  Rng rng(31);
  const RsaPrivateKey good =
      RsaGenerateKeyPair(&rng, 512).ValueOrDie().private_key;
  RsaPrivateKey loaded;
  ASSERT_TRUE(UnpackRsaPrivateKey(PackRsaPrivateKey(good), &loaded).ok());
  EXPECT_EQ(loaded.q_inv_p, good.q_inv_p);
  const struct {
    const char* what;
    void (*damage)(RsaPrivateKey*);
  } kDamages[] = {
      {"p = 0", [](RsaPrivateKey* k) { k->p = BigUInt(); }},
      {"q = 1", [](RsaPrivateKey* k) { k->q = BigUInt(1); }},
      {"even p", [](RsaPrivateKey* k) { k->p = k->p + BigUInt(1); }},
      {"p*q != n", [](RsaPrivateKey* k) { k->n = k->n + BigUInt(2); }},
      {"d = 0", [](RsaPrivateKey* k) { k->d = BigUInt(); }},
      {"d_mod_p1 = p-1",
       [](RsaPrivateKey* k) { k->d_mod_p1 = k->p - BigUInt(1); }},
      {"d_mod_q1 = q-1",
       [](RsaPrivateKey* k) { k->d_mod_q1 = k->q - BigUInt(1); }},
      {"q_inv_p = p", [](RsaPrivateKey* k) { k->q_inv_p = k->p; }},
  };
  for (const auto& d : kDamages) {
    RsaPrivateKey bad = good;
    d.damage(&bad);
    EXPECT_EQ(UnpackRsaPrivateKey(PackRsaPrivateKey(bad), &loaded).code(),
              StatusCode::kSerializationError)
        << d.what;
  }
}

TEST(Protocol6Test, PackedModeShrinksPerIntegerTraffic) {
  // Same world through kPerInteger and kPackedInteger: identical graphs,
  // several-fold fewer ciphertext bytes.
  P6Fixture fp(2, 21);
  P6Fixture fu(2, 21);
  Protocol6Config packed_cfg =
      SmallRsaConfig(Protocol6Config::EncryptionMode::kPackedInteger);
  Protocol6Config plain_cfg =
      SmallRsaConfig(Protocol6Config::EncryptionMode::kPerInteger);
  PropagationGraphProtocol packed(&fp.net, fp.host, fp.providers, packed_cfg);
  PropagationGraphProtocol plain(&fu.net, fu.host, fu.providers, plain_cfg);
  auto po = packed
                .Run(*fp.graph, 25, fp.provider_logs, fp.host_rng.get(),
                     fp.RngPtrs())
                .ValueOrDie();
  auto uo = plain
                .Run(*fu.graph, 25, fu.provider_logs, fu.host_rng.get(),
                     fu.RngPtrs())
                .ValueOrDie();
  ExpectGraphsMatchPlaintext(po, *fp.graph, fp.log, 25);
  ExpectGraphsMatchPlaintext(uo, *fu.graph, fu.log, 25);
  EXPECT_EQ(fp.net.Report().num_messages, fu.net.Report().num_messages);
  EXPECT_LT(fp.net.Report().num_bytes * 3, fu.net.Report().num_bytes);
}

TEST(Protocol6Test, PackedModeFallsBackPerVectorOnLargeDeltas) {
  // A 1-tick Delta bound is violated by almost every real vector, forcing
  // the per-action kPerInteger fallback; correctness must be unaffected.
  P6Fixture f(2);
  Protocol6Config cfg =
      SmallRsaConfig(Protocol6Config::EncryptionMode::kPackedInteger);
  cfg.packed_delta_bound = 1;
  PropagationGraphProtocol proto(&f.net, f.host, f.providers, cfg);
  auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  ExpectGraphsMatchPlaintext(out, *f.graph, f.log, 25);
}

TEST(Protocol6Test, CommunicationMatchesTable2Totals) {
  for (size_t m : {2u, 3u, 4u}) {
    P6Fixture f(m, 17 + m);
    PropagationGraphProtocol proto(&f.net, f.host, f.providers,
                                   SmallRsaConfig());
    ASSERT_TRUE(proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs())
                    .ok());
    auto report = f.net.Report();
    EXPECT_EQ(report.num_rounds, 4u) << "m=" << m;
    EXPECT_EQ(report.num_messages, 3 * m) << "m=" << m;
    EXPECT_EQ(f.net.PendingCount(), 0u);
  }
}

TEST(Protocol6Test, DecoyArcsNeverEnterPropagationGraphs) {
  P6Fixture f(2);
  Protocol6Config cfg = SmallRsaConfig();
  cfg.obfuscation_factor = 4.0;  // Lots of decoys.
  PropagationGraphProtocol proto(&f.net, f.host, f.providers, cfg);
  auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  for (const auto& pg : out.graphs) {
    for (NodeId v = 0; v < f.graph->num_nodes(); ++v) {
      for (const auto& arc : pg.OutArcs(v)) {
        EXPECT_TRUE(f.graph->HasArc(v, arc.to))
            << "PG contains non-social arc " << v << "->" << arc.to;
      }
    }
  }
}

TEST(Protocol6Test, ActionsNobodyPerformedYieldEmptyGraphs) {
  P6Fixture f(2);
  PropagationGraphProtocol proto(&f.net, f.host, f.providers,
                                 SmallRsaConfig());
  // Declare more actions than the log contains.
  auto out = proto.Run(*f.graph, 40, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  ASSERT_EQ(out.graphs.size(), 40u);
  for (ActionId a = f.log.MaxActionId(); a < 40; ++a) {
    EXPECT_EQ(out.graphs[a].num_arcs(), 0u);
  }
}

TEST(Protocol6Test, RelayedBytesAreCiphertextOnly) {
  P6Fixture f(3);
  PropagationGraphProtocol proto(&f.net, f.host, f.providers,
                                 SmallRsaConfig());
  ASSERT_TRUE(proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                        f.RngPtrs())
                  .ok());
  // P1 relayed the payloads of providers 2..m.
  EXPECT_GT(proto.views().p1_relayed_bytes, 0u);
}

TEST(Protocol6Test, Validation) {
  P6Fixture f(2);
  PropagationGraphProtocol one(&f.net, f.host, {f.providers[0]},
                               SmallRsaConfig());
  EXPECT_FALSE(one.Run(*f.graph, 25, {f.provider_logs[0]}, f.host_rng.get(),
                       {f.rngs[0].get()})
                   .ok());
  PropagationGraphProtocol proto(&f.net, f.host, f.providers,
                                 SmallRsaConfig());
  EXPECT_FALSE(proto.Run(*f.graph, 25, {f.provider_logs[0]},
                         f.host_rng.get(), f.RngPtrs())
                   .ok());
}

}  // namespace
}  // namespace psi
