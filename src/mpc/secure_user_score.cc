#include "mpc/secure_user_score.h"

#include <utility>

#include "actionlog/counters.h"
#include "common/annotations.h"
#include "common/serialize.h"
#include "mpc/secure_division.h"
#include "mpc/wire.h"

namespace psi {

SecureUserScoreProtocol::SecureUserScoreProtocol(
    Network* network, PartyId host, std::vector<PartyId> providers,
    SecureScoreConfig config)
    : network_(network),
      host_(host),
      providers_(std::move(providers)),
      config_(std::move(config)) {}

Result<std::vector<double>> SecureUserScoreProtocol::Run(
    const SocialGraph& host_graph, size_t num_actions,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng) {
  return DrainOnError(network_,
                      RunImpl(host_graph, num_actions, provider_logs, host_rng,
                              provider_rngs, pair_secret_rng));
}

Result<std::vector<double>> SecureUserScoreProtocol::RunImpl(
    const SocialGraph& host_graph, size_t num_actions,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng) {
  const size_t m = providers_.size();
  const size_t n = host_graph.num_nodes();
  if (m < 2) return Status::InvalidArgument("pipeline needs >= 2 providers");
  if (config_.score_options.include_self) {
    return Status::Unimplemented(
        "include_self scoring needs performer sets, which Protocol 6 "
        "deliberately withholds from H; use the plaintext baseline");
  }

  // ---- Phase 1: Protocol 6 gives H every PG(alpha). ----
  PropagationGraphProtocol p6(network_, host_, providers_, config_.protocol6);
  PSI_ASSIGN_OR_RETURN(Protocol6Output pgs,
                       p6.Run(host_graph, num_actions, provider_logs, host_rng,
                              provider_rngs));
  p6_views_ = std::move(p6).TakeViews();

  // ---- Phase 2: secure a_i shares (batched Protocol 2 over n counters). --
  std::vector<std::vector<uint64_t>> inputs(m);
  for (size_t k = 0; k < m; ++k) {
    inputs[k] = ComputeActionCounts(provider_logs[k], n);
  }
  SecureSumConfig sum_config;
  sum_config.input_bound_a = BigUInt(num_actions);
  sum_config.modulus_s = RecommendedModulus(sum_config.input_bound_a, n,
                                            config_.epsilon_log2);
  PartyId third_party = (m > 2) ? providers_[2] : host_;
  SecureSumProtocol secure_sum(network_, providers_, third_party, sum_config);
  PSI_ASSIGN_OR_RETURN(
      BatchedIntegerShares shares,
      secure_sum.RunProtocol2(inputs, provider_rngs, pair_secret_rng, "P6S."));

  // ---- Phase 3: masked reveal of a_i (division by the constant 1). ----
  PSI_SECRET std::vector<BigUInt> masks;
  PSI_ASSIGN_OR_RETURN(
      masks, DrawDivisionMasks(network_, providers_[0], providers_[1], n,
                               provider_rngs[0], provider_rngs[1],
                               "P6S.Step5 (joint M_i)", "P6S.Step6 (joint r_i)",
                               /*fraction_bits=*/64));

  // P1 sends R_i * s1(a_i) and R_i * 1; P2 sends R_i * s2(a_i). The unit
  // column is the masked sharing (1, 0) of the public constant; P2's zero
  // share need not travel.
  const std::vector<size_t> owners = MaskOwners(n, {});
  PSI_ASSIGN_OR_RETURN(const MaskedShares masked,
                       MaskShares(owners, shares.s1, shares.s2, masks));
  PSI_ASSIGN_OR_RETURN(const MaskedShares unit,
                       MaskShares(owners,
                                  std::vector<BigUInt>(n, BigUInt(1)),
                                  std::vector<BigInt>(n), masks));
  network_->BeginRound("P6S.Steps7-8 (masked a_i shares -> H)");
  {
    BinaryWriter w;
    w.WriteVarU64(n);
    for (size_t i = 0; i < n; ++i) {
      WriteBigUInt(&w, masked.m1[i]);
      WriteBigUInt(&w, unit.m1[i]);
    }
    PSI_RETURN_NOT_OK(network_->Send(providers_[0], host_, w.TakeBuffer()));
  }
  PSI_RETURN_NOT_OK(
      network_->Send(providers_[1], host_, wire::PackBigInts(masked.m2)));

  // Host reconstructs a_i = (R*a_i) / (R*1) exactly.
  PSI_ASSIGN_OR_RETURN(auto buf1, network_->Recv(host_, providers_[0]));
  PSI_ASSIGN_OR_RETURN(auto buf2, network_->Recv(host_, providers_[1]));
  std::vector<BigUInt> host_m1(n), host_unit(n);
  {
    BinaryReader r(buf1);
    uint64_t count;
    PSI_RETURN_NOT_OK(r.ReadVarU64(&count));
    if (count != n) return Status::ProtocolError("masked vector length");
    for (size_t i = 0; i < n; ++i) {
      PSI_RETURN_NOT_OK(ReadBigUInt(&r, &host_m1[i]));
      PSI_RETURN_NOT_OK(ReadBigUInt(&r, &host_unit[i]));
    }
  }
  std::vector<BigInt> host_m2;
  PSI_RETURN_NOT_OK(wire::UnpackBigInts(buf2, &host_m2));
  PSI_ASSIGN_OR_RETURN(const std::vector<BigUInt> masked_a,
                       RecombineMaskedShares(host_m1, host_m2, n));

  revealed_a_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (host_unit[i].IsZero()) {
      return Status::ProtocolError("zero masked unit for a_i");
    }
    // Exact: masked_a == R_i * a_i and host_unit == R_i.
    PSI_ASSIGN_OR_RETURN(revealed_a_[i],
                         (masked_a[i] / host_unit[i]).ToUint64());
  }

  // ---- Phase 4 (local at H): Eq. (3) from the PGs and the a_i. ----
  std::vector<double> numer(n, 0.0);
  for (const auto& pg : pgs.graphs) {
    for (NodeId v = 0; v < n; ++v) {
      // Only performers can own a non-empty sphere; a non-performer has no
      // outgoing PG arcs, so its sphere is empty and can be skipped.
      if (pg.OutArcs(v).empty()) continue;
      numer[v] += static_cast<double>(
          pg.InfluenceSphereSize(v, config_.score_options.tau));
    }
  }
  std::vector<double> scores(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    if (revealed_a_[v] > 0) {
      scores[v] = numer[v] / static_cast<double>(revealed_a_[v]);
    }
  }
  return scores;
}

}  // namespace psi
