// Joint randomness between two parties over the network.
//
// Protocols 3 and 4 require P1 and P2 to "jointly generate" random reals
// (M_i ~ Z and r_i ~ U(0, M_i)). The paper's cost model (Table 1) accounts
// one exchange of n reals in each direction per batch, which is what
// JointUniformBatch produces: each party contributes a uniform vector, the
// joint value is the fractional part of the sum, so neither party alone
// biases or predicts it in the semi-honest model. (A malicious-model variant
// would wrap the first message in a hash commitment at the cost of one extra
// round.)

#ifndef PSI_MPC_JOINT_RANDOM_H_
#define PSI_MPC_JOINT_RANDOM_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/network.h"

namespace psi {

/// \brief One metered exchange producing `count` joint uniforms in [0, 1).
///
/// Opens one communication round labeled `label`; sends one message in each
/// direction (2 messages of count * 8 bytes), matching the Table 1 rows for
/// Protocol 4 steps 5 and 6.
[[nodiscard]] Result<std::vector<double>> JointUniformBatch(Network* network, PartyId a,
                                              PartyId b, size_t count,
                                              Rng* rng_a, Rng* rng_b,
                                              const std::string& label);

/// \brief Transforms joint uniforms into Z-distributed masks M = 1/(1-u).
std::vector<double> ToZDistribution(const std::vector<double>& uniforms);

/// \brief Transforms joint uniforms into r_i ~ U(0, M_i).
[[nodiscard]] Result<std::vector<double>> ToUniformBelow(const std::vector<double>& uniforms,
                                           const std::vector<double>& bounds);

}  // namespace psi

#endif  // PSI_MPC_JOINT_RANDOM_H_
