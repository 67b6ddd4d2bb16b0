#include "mpc/multi_host.h"

#include <span>

#include "common/annotations.h"
#include "common/serialize.h"
#include "graph/generators.h"
#include "mpc/secure_division.h"
#include "mpc/secure_sum.h"
#include "mpc/wire.h"

namespace psi {

MultiHostLinkInfluenceProtocol::MultiHostLinkInfluenceProtocol(
    Network* network, std::vector<PartyId> hosts,
    std::vector<PartyId> providers, Protocol4Config config)
    : network_(network),
      hosts_(std::move(hosts)),
      providers_(std::move(providers)),
      config_(std::move(config)) {}

Result<std::vector<LinkInfluence>> MultiHostLinkInfluenceProtocol::Run(
    const std::vector<const SocialGraph*>& host_graphs,
    uint64_t num_actions_public, const std::vector<ActionLog>& provider_logs,
    const std::vector<Rng*>& host_rngs, const std::vector<Rng*>& provider_rngs,
    Rng* pair_secret_rng) {
  return DrainOnError(
      network_, RunImpl(host_graphs, num_actions_public, provider_logs,
                        host_rngs, provider_rngs, pair_secret_rng));
}

Result<std::vector<LinkInfluence>> MultiHostLinkInfluenceProtocol::RunImpl(
    const std::vector<const SocialGraph*>& host_graphs,
    uint64_t num_actions_public, const std::vector<ActionLog>& provider_logs,
    const std::vector<Rng*>& host_rngs, const std::vector<Rng*>& provider_rngs,
    Rng* pair_secret_rng) {
  const size_t r = hosts_.size();
  const size_t m = providers_.size();
  if (r == 0) return Status::InvalidArgument("need at least one host");
  if (m < 2) return Status::InvalidArgument("need at least two providers");
  if (host_graphs.size() != r || host_rngs.size() != r) {
    return Status::InvalidArgument("one graph and rng per host");
  }
  if (provider_logs.size() != m || provider_rngs.size() != m) {
    return Status::InvalidArgument("one log and rng per provider");
  }
  const size_t n = host_graphs[0]->num_nodes();
  for (const auto* g : host_graphs) {
    if (g->num_nodes() != n) {
      return Status::InvalidArgument("hosts must share the user universe");
    }
  }

  // ---- Step 1: every host publishes its obfuscated arc set. ----
  std::vector<std::vector<Arc>> omegas(r);
  network_->BeginRound("MH.Step1 (H_h -> P_k: Omega_h)");
  for (size_t h = 0; h < r; ++h) {
    PSI_ASSIGN_OR_RETURN(omegas[h],
                         ObfuscateArcSet(host_rngs[h], *host_graphs[h],
                                         config_.obfuscation_factor));
    auto packed = wire::PackArcs(omegas[h]);
    for (size_t k = 0; k < m; ++k) {
      PSI_RETURN_NOT_OK(network_->Send(hosts_[h], providers_[k], packed));
    }
  }
  omega_sizes_.clear();
  for (const auto& o : omegas) omega_sizes_.push_back(o.size());

  // Providers receive and concatenate all Omegas.
  std::vector<Arc> all_pairs;
  std::vector<size_t> range_start(r + 1, 0);
  {
    // Every provider receives identical content and validates its copy;
    // provider 0's copy supplies the pair list.
    for (size_t h = 0; h < r; ++h) {
      std::vector<Arc> decoded;
      for (size_t k = 0; k < m; ++k) {
        PSI_ASSIGN_OR_RETURN(auto buf,
                             network_->Recv(providers_[k], hosts_[h]));
        std::vector<Arc> copy;
        PSI_RETURN_NOT_OK(wire::UnpackArcSet(buf, n, &copy));
        if (k == 0) decoded = std::move(copy);
      }
      range_start[h] = all_pairs.size();
      all_pairs.insert(all_pairs.end(), decoded.begin(), decoded.end());
    }
    range_start[r] = all_pairs.size();
  }
  const size_t q_total = all_pairs.size();

  // ---- Step 2: one batched Protocol 2 over [a | b(all Omegas)]. ----
  std::vector<std::vector<uint64_t>> inputs(m);
  for (size_t k = 0; k < m; ++k) {
    PSI_ASSIGN_OR_RETURN(inputs[k],
                         ComputeProviderCounterVector(
                             provider_logs[k], n, all_pairs, config_));
  }
  BigUInt bound(num_actions_public);
  if (config_.weights.has_value()) {
    bound = bound * BigUInt(config_.weight_scale) * BigUInt(config_.h);
  }
  BigUInt modulus =
      config_.modulus_s.has_value()
          ? *config_.modulus_s
          : RecommendedModulus(bound, n + q_total, config_.epsilon_log2);
  SecureSumConfig sum_config;
  sum_config.modulus_s = modulus;
  sum_config.input_bound_a = bound;
  sum_config.use_secret_permutation = config_.use_secret_permutation;
  PartyId third_party = (m > 2) ? providers_[2] : hosts_[0];
  SecureSumProtocol secure_sum(network_, providers_, third_party, sum_config);
  PSI_ASSIGN_OR_RETURN(
      BatchedIntegerShares shares,
      secure_sum.RunProtocol2(inputs, provider_rngs, pair_secret_rng, "MH."));

  // ---- Step 3: joint per-user masks, drawn once for all hosts. ----
  PSI_SECRET std::vector<BigUInt> masks;
  PSI_ASSIGN_OR_RETURN(
      masks, DrawDivisionMasks(network_, providers_[0], providers_[1], n,
                               provider_rngs[0], provider_rngs[1],
                               "MH.Step5 (joint M_i)", "MH.Step6 (joint r_i)",
                               config_.fraction_bits));

  // ---- Step 4: each host receives masked a-shares + its own b-slice. ----
  network_->BeginRound("MH.Steps7-8 (masked slices -> hosts)");
  PSI_ASSIGN_OR_RETURN(
      const MaskedShares masked,
      MaskShares(MaskOwners(n, all_pairs), shares.s1, shares.s2, masks));
  const std::span<const BigUInt> m1(masked.m1);
  const std::span<const BigInt> m2(masked.m2);
  auto concat = [](std::vector<uint8_t> a, const std::vector<uint8_t>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  for (size_t h = 0; h < r; ++h) {
    const size_t lo = n + range_start[h];
    const size_t q_h = range_start[h + 1] - range_start[h];
    PSI_RETURN_NOT_OK(network_->Send(
        providers_[0], hosts_[h],
        concat(wire::PackBigUInts(m1.first(n)),
               wire::PackBigUInts(m1.subspan(lo, q_h)))));
    PSI_RETURN_NOT_OK(network_->Send(
        providers_[1], hosts_[h],
        concat(wire::PackBigInts(m2.first(n)),
               wire::PackBigInts(m2.subspan(lo, q_h)))));
  }

  // ---- Step 5 (local at each host): recombine and divide. ----
  const double descale = config_.weights.has_value()
                             ? static_cast<double>(config_.weight_scale)
                             : 1.0;
  std::vector<LinkInfluence> out(r);
  for (size_t h = 0; h < r; ++h) {
    PSI_ASSIGN_OR_RETURN(auto buf1, network_->Recv(hosts_[h], providers_[0]));
    PSI_ASSIGN_OR_RETURN(auto buf2, network_->Recv(hosts_[h], providers_[1]));
    BinaryReader r1(buf1), r2(buf2);
    std::vector<BigUInt> a1, b1;
    std::vector<BigInt> a2, b2;
    PSI_RETURN_NOT_OK(wire::UnpackBigUInts(&r1, &a1));
    PSI_RETURN_NOT_OK(wire::UnpackBigUInts(&r1, &b1));
    PSI_RETURN_NOT_OK(wire::UnpackBigInts(&r2, &a2));
    PSI_RETURN_NOT_OK(wire::UnpackBigInts(&r2, &b2));
    if (!r1.AtEnd() || !r2.AtEnd()) {
      return Status::ProtocolError("trailing bytes after masked slices");
    }
    PSI_ASSIGN_OR_RETURN(const std::vector<BigUInt> masked_a,
                         RecombineMaskedShares(a1, a2, n));
    PSI_ASSIGN_OR_RETURN(
        const std::vector<BigUInt> masked_b,
        RecombineMaskedShares(b1, b2, range_start[h + 1] - range_start[h]));
    // Quotients for this host's genuine arcs.
    out[h].pairs = host_graphs[h]->arcs();
    PSI_ASSIGN_OR_RETURN(out[h].p, ArcQuotients(out[h].pairs, omegas[h],
                                                masked_a, masked_b, descale));
  }
  return out;
}

}  // namespace psi
