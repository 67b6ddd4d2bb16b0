#include "mpc/secure_division.h"

#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/serialize.h"
#include "common/thread_pool.h"
#include "mpc/joint_random.h"

namespace psi {

Result<std::vector<BigUInt>> DrawDivisionMasks(
    Network* network, PartyId p1, PartyId p2, size_t count, Rng* rng1,
    Rng* rng2, const std::string& label_m, const std::string& label_r,
    size_t fraction_bits) {
  PSI_ASSIGN_OR_RETURN(auto u_m, JointUniformBatch(network, p1, p2, count,
                                                   rng1, rng2, label_m));
  const std::vector<double> m_values = ToZDistribution(u_m);
  PSI_ASSIGN_OR_RETURN(auto u_r, JointUniformBatch(network, p1, p2, count,
                                                   rng1, rng2, label_r));
  PSI_ASSIGN_OR_RETURN(auto r_values, ToUniformBelow(u_r, m_values));

  PSI_SECRET std::vector<BigUInt> masks;
  masks.resize(count);
  for (size_t i = 0; i < count; ++i) {
    PSI_ASSIGN_OR_RETURN(
        masks[i], BigUIntFromDouble(std::ldexp(
                      r_values[i], static_cast<int>(fraction_bits))));
    // psi-lint: allow(secret-flow) zero test only nudges the mask to 1 so the later division is defined; it leaks one bit with probability ~2^-fraction_bits
    if (masks[i].IsZero()) masks[i] = BigUInt(1);
  }
  return masks;
}

std::vector<size_t> MaskOwners(size_t n, const std::vector<Arc>& arcs) {
  std::vector<size_t> owners(n);
  std::iota(owners.begin(), owners.end(), size_t{0});
  owners.reserve(n + arcs.size());
  for (const Arc& a : arcs) owners.push_back(a.from);
  return owners;
}

Result<MaskedShares> MaskShares(const std::vector<size_t>& owners,
                                const std::vector<BigUInt>& s1,
                                const std::vector<BigInt>& s2,
                                PSI_SECRET const std::vector<BigUInt>& masks) {
  if (s1.size() != owners.size() || s2.size() != owners.size()) {
    return Status::InvalidArgument("share vectors and mask owners differ in length");
  }
  for (size_t owner : owners) {
    if (owner >= masks.size()) {
      return Status::InvalidArgument("mask owner out of range");
    }
  }
  // Pure big-integer products over already-drawn masks: the per-counter
  // loop fans out with no effect on the transcript.
  MaskedShares out;
  out.m1.resize(owners.size());
  out.m2.resize(owners.size());
  ParallelFor(owners.size(), [&](size_t c) {
    const BigUInt& mask = masks[owners[c]];
    out.m1[c] = mask * s1[c];
    out.m2[c] = BigInt(mask) * s2[c];
  });
  return out;
}

Result<std::vector<BigUInt>> RecombineMaskedShares(
    const std::vector<BigUInt>& m1, const std::vector<BigInt>& m2,
    size_t count) {
  if (m1.size() != count || m2.size() != count) {
    return Status::ProtocolError("masked share vectors have wrong length");
  }
  std::vector<BigUInt> out(count);
  PSI_RETURN_NOT_OK(ParallelForStatus(count, [&](size_t c) -> Status {
    BigInt value = BigInt(m1[c]) + m2[c];
    if (value.IsNegative()) {
      return Status::ProtocolError("negative recombined masked counter");
    }
    out[c] = value.magnitude();
    return Status::OK();
  }));
  return out;
}

Result<std::vector<double>> ArcQuotients(const std::vector<Arc>& arcs,
                                         const std::vector<Arc>& omega,
                                         std::span<const BigUInt> masked_a,
                                         std::span<const BigUInt> masked_b,
                                         double descale) {
  if (masked_b.size() != omega.size()) {
    return Status::InvalidArgument("one masked numerator per omega arc");
  }
  std::unordered_map<uint64_t, size_t> omega_index;
  omega_index.reserve(omega.size());
  for (size_t p = 0; p < omega.size(); ++p) {
    omega_index.emplace(PairKey(omega[p].from, omega[p].to), p);
  }
  std::vector<double> quotients(arcs.size());
  for (size_t e = 0; e < arcs.size(); ++e) {
    const Arc& arc = arcs[e];
    auto it = omega_index.find(PairKey(arc.from, arc.to));
    if (it == omega_index.end()) {
      return Status::ProtocolError("arc of E missing from Omega_E'");
    }
    if (arc.from >= masked_a.size()) {
      return Status::InvalidArgument("arc source past the masked denominators");
    }
    quotients[e] =
        DivideToDouble(masked_b[it->second], masked_a[arc.from]) / descale;
  }
  return quotients;
}

Result<double> SecureDivisionProtocol::Run(uint64_t a1, uint64_t a2, Rng* rng1,
                                           Rng* rng2,
                                           const std::string& label_prefix) {
  return DrainOnError(network_, RunImpl(a1, a2, rng1, rng2, label_prefix));
}

Result<double> SecureDivisionProtocol::RunImpl(
    uint64_t a1, uint64_t a2, Rng* rng1, Rng* rng2,
    const std::string& label_prefix) {
  // Steps 1-2: joint M ~ Z, then joint r ~ U(0, M).
  PSI_ASSIGN_OR_RETURN(
      auto u_m, JointUniformBatch(network_, p1_, p2_, 1, rng1, rng2,
                                  label_prefix + "Prot3.Step1 (joint M)"));
  std::vector<double> m_values = ToZDistribution(u_m);
  PSI_ASSIGN_OR_RETURN(
      auto u_r, JointUniformBatch(network_, p1_, p2_, 1, rng1, rng2,
                                  label_prefix + "Prot3.Step2 (joint r)"));
  PSI_ASSIGN_OR_RETURN(auto r_values, ToUniformBelow(u_r, m_values));
  const double r = r_values[0];

  // Steps 3-4: both masked products travel to H in one round.
  network_->BeginRound(label_prefix + "Prot3.Steps3-4 (masked values to H)");
  auto pack = [](double v) {
    BinaryWriter w;
    w.WriteDouble(v);
    return w.TakeBuffer();
  };
  constexpr uint16_t kStepMaskedToHost = 3;
  PSI_RETURN_NOT_OK(network_->SendFramed(p1_, host_,
                                         ProtocolId::kSecureDivision,
                                         kStepMaskedToHost,
                                         pack(r * static_cast<double>(a1))));
  PSI_RETURN_NOT_OK(network_->SendFramed(p2_, host_,
                                         ProtocolId::kSecureDivision,
                                         kStepMaskedToHost,
                                         pack(r * static_cast<double>(a2))));

  // Steps 5-9 (local at H).
  auto read_double = [](const std::vector<uint8_t>& buf) -> Result<double> {
    if (buf.size() != 8) {
      return Status::ProtocolError("masked value must be exactly one double");
    }
    BinaryReader reader(buf);
    double v;
    PSI_RETURN_NOT_OK(reader.ReadDouble(&v));
    return v;
  };
  PSI_ASSIGN_OR_RETURN(
      auto buf1, network_->RecvValidated(host_, p1_,
                                         ProtocolId::kSecureDivision,
                                         kStepMaskedToHost));
  PSI_ASSIGN_OR_RETURN(
      auto buf2, network_->RecvValidated(host_, p2_,
                                         ProtocolId::kSecureDivision,
                                         kStepMaskedToHost));
  PSI_ASSIGN_OR_RETURN(views_.masked_a1, read_double(buf1));
  PSI_ASSIGN_OR_RETURN(views_.masked_a2, read_double(buf2));

  if (views_.masked_a2 == 0.0) return 0.0;
  return views_.masked_a1 / views_.masked_a2;
}

}  // namespace psi
