// Protocol 3 (Section 4.2): secure division of private integers.
//
// P1 holds a1, P2 holds a2, both in [0, A]. The host H must learn the real
// quotient a1/a2 (0 when a2 == 0) and nothing about a1, a2 beyond it. The
// two parties jointly draw M ~ Z (pdf mu^-2 on [1, inf)) and r ~ U(0, M),
// then send r*a1 and r*a2; H divides. Theorems 4.2-4.4 characterize the
// residual leakage (see privacy/posterior.h).
//
// Protocol 4 (steps 5-9) runs Protocol 3 in batched, share-masked form:
// P1 and P2 hold additive shares s1 + s2 of every counter, the mask of a
// user multiplies both shares of each counter that user governs, and H
// recombines before dividing. The free functions below are that form, one
// step each, in exact fixed-point integers (DESIGN.md §3). Protocol 4 and
// its four derivatives (segmented, multi-host, perfect-hiding, user-score)
// call them and keep only their own wire calls.

#ifndef PSI_MPC_SECURE_DIVISION_H_
#define PSI_MPC_SECURE_DIVISION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/biguint.h"
#include "common/annotations.h"
#include "common/random.h"
#include "common/status.h"
#include "graph/graph.h"
#include "net/network.h"

namespace psi {

/// \brief The key (i << 32 | j) of the ordered user pair (i, j).
inline uint64_t PairKey(NodeId i, NodeId j) {
  return (static_cast<uint64_t>(i) << 32) | j;
}

/// \brief Steps 5-6: P1 and P2 jointly draw `count` masks M ~ Z and
/// r ~ U(0, M), one JointUniformBatch round each (labelled `label_m` and
/// `label_r`), and return the fixed-point masks
/// R = floor(r * 2^fraction_bits), with a zero mask nudged to 1.
[[nodiscard]] Result<std::vector<BigUInt>> DrawDivisionMasks(
    Network* network, PartyId p1, PartyId p2, size_t count, Rng* rng1,
    Rng* rng2, const std::string& label_m, const std::string& label_r,
    size_t fraction_bits);

/// \brief The mask index of every counter of the layout [a | numerators]:
/// c for the n user counters, then the source user of each arc.
std::vector<size_t> MaskOwners(size_t n, const std::vector<Arc>& arcs);

/// \brief What P1 and P2 send H in steps 7-8.
struct MaskedShares {
  std::vector<BigUInt> m1;  ///< R_owner(c) * s1[c]
  std::vector<BigInt> m2;   ///< R_owner(c) * s2[c]
};

/// \brief Steps 7-8: the masked shares of every counter c, masked by
/// masks[owners[c]], computed on the pool. A length mismatch or an owner
/// past the masks is InvalidArgument.
PSI_SANITIZES [[nodiscard]] Result<MaskedShares> MaskShares(
    const std::vector<size_t>& owners, const std::vector<BigUInt>& s1,
    const std::vector<BigInt>& s2, PSI_SECRET const std::vector<BigUInt>& masks);

/// \brief Step 9 at H: m1[c] + m2[c] for `count` counters, on the pool.
/// Either vector holding other than `count` values, or a negative sum, is a
/// ProtocolError.
[[nodiscard]] Result<std::vector<BigUInt>> RecombineMaskedShares(
    const std::vector<BigUInt>& m1, const std::vector<BigInt>& m2,
    size_t count);

/// \brief Step 9 at H: p = masked_b / masked_a[source] / descale for every
/// arc of `arcs`, where masked_b is indexed like `omega` (0 when the
/// denominator is 0). An arc missing from omega is a ProtocolError.
[[nodiscard]] Result<std::vector<double>> ArcQuotients(
    const std::vector<Arc>& arcs, const std::vector<Arc>& omega,
    std::span<const BigUInt> masked_a, std::span<const BigUInt> masked_b,
    double descale);

/// \brief What the host observed during a Protocol 3 run.
struct SecureDivisionViews {
  double masked_a1 = 0.0;  ///< r * a1
  double masked_a2 = 0.0;  ///< r * a2
};

/// \brief One secure division between P1, P2 and the host.
class SecureDivisionProtocol {
 public:
  SecureDivisionProtocol(Network* network, PartyId p1, PartyId p2,
                         PartyId host)
      : network_(network), p1_(p1), p2_(p2), host_(host) {}

  /// \brief Runs the protocol; returns the quotient as computed by H.
  [[nodiscard]] Result<double> Run(uint64_t a1, uint64_t a2, Rng* rng1, Rng* rng2,
                     const std::string& label_prefix);

  const SecureDivisionViews& views() const { return views_; }

 private:
  // The protocol body; the public entry drains mailboxes on error.
  [[nodiscard]] Result<double> RunImpl(uint64_t a1, uint64_t a2, Rng* rng1,
                                       Rng* rng2,
                                       const std::string& label_prefix);

  Network* network_;
  PartyId p1_;
  PartyId p2_;
  PartyId host_;
  SecureDivisionViews views_;
};

}  // namespace psi

#endif  // PSI_MPC_SECURE_DIVISION_H_
