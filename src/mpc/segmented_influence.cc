#include "mpc/segmented_influence.h"

#include <span>

#include "common/annotations.h"
#include "graph/generators.h"
#include "mpc/secure_division.h"
#include "mpc/secure_sum.h"
#include "mpc/wire.h"

namespace psi {

SegmentedInfluenceProtocol::SegmentedInfluenceProtocol(
    Network* network, PartyId host, std::vector<PartyId> providers,
    Protocol4Config config)
    : network_(network),
      host_(host),
      providers_(std::move(providers)),
      config_(std::move(config)) {}

Result<SegmentedLinkInfluence> SegmentedInfluenceProtocol::Run(
    const SocialGraph& host_graph, uint64_t num_actions_public,
    const std::vector<ActionLog>& provider_logs,
    const std::vector<uint32_t>& segment_of_action, uint32_t num_segments,
    Rng* host_rng, const std::vector<Rng*>& provider_rngs,
    Rng* pair_secret_rng) {
  return DrainOnError(
      network_, RunImpl(host_graph, num_actions_public, provider_logs,
                        segment_of_action, num_segments, host_rng,
                        provider_rngs, pair_secret_rng));
}

Result<SegmentedLinkInfluence> SegmentedInfluenceProtocol::RunImpl(
    const SocialGraph& host_graph, uint64_t num_actions_public,
    const std::vector<ActionLog>& provider_logs,
    const std::vector<uint32_t>& segment_of_action, uint32_t num_segments,
    Rng* host_rng, const std::vector<Rng*>& provider_rngs,
    Rng* pair_secret_rng) {
  const size_t m = providers_.size();
  const size_t n = host_graph.num_nodes();
  const size_t g_count = num_segments;
  if (m < 2) return Status::InvalidArgument("need at least two providers");
  if (g_count == 0) return Status::InvalidArgument("need >= 1 segment");
  if (provider_logs.size() != m || provider_rngs.size() != m) {
    return Status::InvalidArgument("one log and rng per provider");
  }
  if (config_.weights.has_value()) {
    return Status::Unimplemented(
        "segmented protocol currently supports the Eq. (1) definition");
  }

  // ---- Step 1-2: Omega_E', as in Protocol 4. ----
  PSI_ASSIGN_OR_RETURN(
      std::vector<Arc> omega,
      ObfuscateArcSet(host_rng, host_graph, config_.obfuscation_factor));
  const size_t q = omega.size();
  network_->BeginRound("SEG.Step2 (H -> P_k: Omega_E')");
  auto packed = wire::PackArcs(omega);
  for (size_t k = 0; k < m; ++k) {
    PSI_RETURN_NOT_OK(network_->Send(host_, providers_[k], packed));
  }
  std::vector<std::vector<Arc>> provider_omega(m);
  for (size_t k = 0; k < m; ++k) {
    PSI_ASSIGN_OR_RETURN(auto buf, network_->Recv(providers_[k], host_));
    PSI_RETURN_NOT_OK(wire::UnpackArcSet(buf, n, &provider_omega[k]));
  }

  // ---- Local: per-segment counter blocks. Layout:
  //      [a^0 .. a^{G-1} | b^0 .. b^{G-1}], each a-block n wide, each
  //      b-block q wide. ----
  const size_t a_total = g_count * n;
  const size_t total = a_total + g_count * q;
  std::vector<std::vector<uint64_t>> inputs(m);
  for (size_t k = 0; k < m; ++k) {
    inputs[k].reserve(total);
    std::vector<ActionLog> filtered(g_count);
    for (uint32_t g = 0; g < g_count; ++g) {
      filtered[g] = FilterLogBySegment(provider_logs[k], segment_of_action, g);
      auto a = ComputeActionCounts(filtered[g], n);
      inputs[k].insert(inputs[k].end(), a.begin(), a.end());
    }
    for (uint32_t g = 0; g < g_count; ++g) {
      auto b = ComputeFollowCounts(filtered[g], provider_omega[k], config_.h);
      inputs[k].insert(inputs[k].end(), b.begin(), b.end());
    }
  }

  // ---- Batched Protocol 2 over all G(n + q) counters. ----
  BigUInt bound(num_actions_public);
  BigUInt modulus =
      config_.modulus_s.has_value()
          ? *config_.modulus_s
          : RecommendedModulus(bound, total, config_.epsilon_log2);
  SecureSumConfig sum_config;
  sum_config.modulus_s = modulus;
  sum_config.input_bound_a = bound;
  sum_config.use_secret_permutation = config_.use_secret_permutation;
  PartyId third_party = (m > 2) ? providers_[2] : host_;
  SecureSumProtocol secure_sum(network_, providers_, third_party, sum_config);
  PSI_ASSIGN_OR_RETURN(
      BatchedIntegerShares shares,
      secure_sum.RunProtocol2(inputs, provider_rngs, pair_secret_rng, "SEG."));

  // ---- Per-(user, segment) masks. ----
  PSI_SECRET std::vector<BigUInt> masks;
  PSI_ASSIGN_OR_RETURN(
      masks, DrawDivisionMasks(network_, providers_[0], providers_[1], a_total,
                               provider_rngs[0], provider_rngs[1],
                               "SEG.Step5 (joint M_{i,g})",
                               "SEG.Step6 (joint r_{i,g})",
                               config_.fraction_bits));
  // The mask governing counter c: block (g, i) for a-counters, block
  // (g, source user) for b-counters.
  std::vector<size_t> owners = MaskOwners(a_total, {});
  for (size_t g = 0; g < g_count; ++g) {
    for (const Arc& a : omega) owners.push_back(g * n + a.from);
  }

  // ---- Masked shares to H. ----
  PSI_ASSIGN_OR_RETURN(const MaskedShares masked,
                       MaskShares(owners, shares.s1, shares.s2, masks));
  network_->BeginRound("SEG.Steps7-8 (masked shares -> H)");
  PSI_RETURN_NOT_OK(
      network_->Send(providers_[0], host_, wire::PackBigUInts(masked.m1)));
  PSI_RETURN_NOT_OK(
      network_->Send(providers_[1], host_, wire::PackBigInts(masked.m2)));

  // ---- Host: recombine, divide per segment. ----
  PSI_ASSIGN_OR_RETURN(auto buf1, network_->Recv(host_, providers_[0]));
  PSI_ASSIGN_OR_RETURN(auto buf2, network_->Recv(host_, providers_[1]));
  std::vector<BigUInt> host_m1;
  std::vector<BigInt> host_m2;
  PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf1, &host_m1));
  PSI_RETURN_NOT_OK(wire::UnpackBigInts(buf2, &host_m2));
  PSI_ASSIGN_OR_RETURN(const std::vector<BigUInt> recombined,
                       RecombineMaskedShares(host_m1, host_m2, total));
  const std::span<const BigUInt> all(recombined);

  SegmentedLinkInfluence out;
  out.per_segment.resize(g_count);
  for (uint32_t g = 0; g < g_count; ++g) {
    auto& li = out.per_segment[g];
    li.pairs = host_graph.arcs();
    PSI_ASSIGN_OR_RETURN(
        li.p, ArcQuotients(li.pairs, omega, all.subspan(g * n, n),
                           all.subspan(a_total + g * q, q), /*descale=*/1.0));
  }
  return out;
}

}  // namespace psi
