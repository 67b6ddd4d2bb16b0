#include "mpc/perfect_hiding.h"

#include <span>

#include "common/annotations.h"
#include "common/serialize.h"
#include "crypto/oblivious_transfer.h"
#include "mpc/secure_division.h"
#include "mpc/secure_sum.h"
#include "mpc/wire.h"

namespace psi {

size_t AllPairsIndex(NodeId i, NodeId j, size_t n) {
  PSI_DCHECK(i != j && i < n && j < n);
  size_t col = (j > i) ? static_cast<size_t>(j) - 1 : static_cast<size_t>(j);
  return static_cast<size_t>(i) * (n - 1) + col;
}

std::vector<Arc> AllOrderedPairs(size_t n) {
  std::vector<Arc> pairs;
  pairs.reserve(n * (n - 1));
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i != j) pairs.push_back(Arc{i, j});
    }
  }
  return pairs;
}

PerfectHidingLinkInfluenceProtocol::PerfectHidingLinkInfluenceProtocol(
    Network* network, PartyId host, std::vector<PartyId> providers,
    PerfectHidingConfig config)
    : network_(network),
      host_(host),
      providers_(std::move(providers)),
      config_(config) {}

Result<LinkInfluence> PerfectHidingLinkInfluenceProtocol::Run(
    const SocialGraph& host_graph, uint64_t num_actions_public,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng) {
  return DrainOnError(
      network_, RunImpl(host_graph, num_actions_public, provider_logs,
                        host_rng, provider_rngs, pair_secret_rng));
}

Result<LinkInfluence> PerfectHidingLinkInfluenceProtocol::RunImpl(
    const SocialGraph& host_graph, uint64_t num_actions_public,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng) {
  const size_t m = providers_.size();
  const size_t n = host_graph.num_nodes();
  if (m < 2) return Status::InvalidArgument("need at least two providers");
  if (provider_logs.size() != m || provider_rngs.size() != m) {
    return Status::InvalidArgument("one log and rng per provider");
  }
  if (n < 2) return Status::InvalidArgument("need at least two users");

  // No Omega round: the pair list is the public all-pairs enumeration.
  std::vector<Arc> pairs = AllOrderedPairs(n);
  const size_t q = pairs.size();

  // ---- Batched Protocol 2 over [a | b(all pairs)]. ----
  Protocol4Config counter_cfg;
  counter_cfg.h = config_.h;
  std::vector<std::vector<uint64_t>> inputs(m);
  for (size_t k = 0; k < m; ++k) {
    PSI_ASSIGN_OR_RETURN(inputs[k],
                         ComputeProviderCounterVector(provider_logs[k], n,
                                                      pairs, counter_cfg));
  }
  BigUInt bound(num_actions_public);
  SecureSumConfig sum_config;
  sum_config.input_bound_a = bound;
  sum_config.modulus_s =
      RecommendedModulus(bound, n + q, config_.epsilon_log2);
  sum_config.use_secret_permutation = config_.use_secret_permutation;
  PartyId third_party = (m > 2) ? providers_[2] : host_;
  SecureSumProtocol secure_sum(network_, providers_, third_party, sum_config);
  PSI_ASSIGN_OR_RETURN(
      BatchedIntegerShares shares,
      secure_sum.RunProtocol2(inputs, provider_rngs, pair_secret_rng, "PH."));

  // ---- Joint per-user masks. ----
  PSI_SECRET std::vector<BigUInt> masks;
  PSI_ASSIGN_OR_RETURN(
      masks, DrawDivisionMasks(network_, providers_[0], providers_[1], n,
                               provider_rngs[0], provider_rngs[1],
                               "PH.Step5 (joint M_i)", "PH.Step6 (joint r_i)",
                               config_.fraction_bits));
  PSI_ASSIGN_OR_RETURN(
      const MaskedShares masked,
      MaskShares(MaskOwners(n, pairs), shares.s1, shares.s2, masks));

  // ---- Denominators travel openly (masked): they are per user, not per
  //      arc, so they reveal nothing about E. ----
  network_->BeginRound("PH.Steps7-8a (masked a shares -> H)");
  PSI_RETURN_NOT_OK(network_->Send(
      providers_[0], host_, wire::PackBigUInts(std::span(masked.m1).first(n))));
  PSI_RETURN_NOT_OK(network_->Send(
      providers_[1], host_, wire::PackBigInts(std::span(masked.m2).first(n))));
  PSI_ASSIGN_OR_RETURN(auto buf1, network_->Recv(host_, providers_[0]));
  PSI_ASSIGN_OR_RETURN(auto buf2, network_->Recv(host_, providers_[1]));
  std::vector<BigUInt> a1;
  std::vector<BigInt> a2;
  PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf1, &a1));
  PSI_RETURN_NOT_OK(wire::UnpackBigInts(buf2, &a2));
  PSI_ASSIGN_OR_RETURN(const std::vector<BigUInt> masked_a,
                       RecombineMaskedShares(a1, a2, n));

  // ---- Numerators via |E|-out-of-(n^2-n) oblivious transfer. ----
  // Message vectors: the masked b-share of every ordered pair.
  std::vector<std::vector<uint8_t>> p1_messages(q), p2_messages(q);
  for (size_t p = 0; p < q; ++p) {
    BinaryWriter w1, w2;
    WriteBigUInt(&w1, masked.m1[n + p]);
    WriteBigInt(&w2, masked.m2[n + p]);
    p1_messages[p] = w1.TakeBuffer();
    p2_messages[p] = w2.TakeBuffer();
  }
  std::vector<size_t> choices;
  choices.reserve(host_graph.num_arcs());
  for (const Arc& a : host_graph.arcs()) {
    choices.push_back(AllPairsIndex(a.from, a.to, n));
  }

  PSI_ASSIGN_OR_RETURN(RsaKeyPair p1_keys,
                       RsaGenerateKeyPair(provider_rngs[0], config_.ot_rsa_bits));
  PSI_ASSIGN_OR_RETURN(RsaKeyPair p2_keys,
                       RsaGenerateKeyPair(provider_rngs[1], config_.ot_rsa_bits));
  PSI_ASSIGN_OR_RETURN(
      auto from_p1,
      RunObliviousTransfers(network_, providers_[0], host_, p1_messages,
                            choices, p1_keys, provider_rngs[0], host_rng,
                            "PH.P1."));
  PSI_ASSIGN_OR_RETURN(
      auto from_p2,
      RunObliviousTransfers(network_, providers_[1], host_, p2_messages,
                            choices, p2_keys, provider_rngs[1], host_rng,
                            "PH.P2."));

  // ---- Recombine and divide, per arc. ----
  const size_t num_arcs = host_graph.num_arcs();
  std::vector<BigUInt> b1(num_arcs);
  std::vector<BigInt> b2(num_arcs);
  for (size_t e = 0; e < num_arcs; ++e) {
    BinaryReader r1(from_p1[e]), r2(from_p2[e]);
    PSI_RETURN_NOT_OK(ReadBigUInt(&r1, &b1[e]));
    PSI_RETURN_NOT_OK(ReadBigInt(&r2, &b2[e]));
  }
  PSI_ASSIGN_OR_RETURN(const std::vector<BigUInt> masked_b,
                       RecombineMaskedShares(b1, b2, num_arcs));
  // The transferred numerators arrive in E's own order, so E indexes them.
  LinkInfluence out;
  out.pairs = host_graph.arcs();
  PSI_ASSIGN_OR_RETURN(out.p, ArcQuotients(out.pairs, out.pairs, masked_a,
                                           masked_b, /*descale=*/1.0));
  return out;
}

}  // namespace psi
