// A simulated Network that damages one Omega frame: it rewrites the source
// of the first arc in the first raw frame on one channel, so a receiver
// decodes an arc naming a user past the universe.

#ifndef PSI_TESTS_MPC_OMEGA_TAMPER_NETWORK_H_
#define PSI_TESTS_MPC_OMEGA_TAMPER_NETWORK_H_

#include <utility>
#include <vector>

#include "mpc/wire.h"
#include "net/network.h"

namespace psi {

/// \brief Network whose first raw frame on (tamper_from -> tamper_to) has
/// its first arc's source replaced by bad_source.
class OmegaTamperNetwork : public Network {
 public:
  PartyId tamper_from = 0;
  PartyId tamper_to = 0;
  NodeId bad_source = 0;

 protected:
  Status Transmit(PartyId from, PartyId to, std::vector<uint8_t> frame,
                  bool front) override {
    std::vector<Arc> arcs;
    if (!tampered_ && from == tamper_from && to == tamper_to &&
        wire::UnpackArcs(frame, &arcs).ok() && !arcs.empty()) {
      arcs[0].from = bad_source;
      frame = wire::PackArcs(arcs);
      tampered_ = true;
    }
    return Network::Transmit(from, to, std::move(frame), front);
  }

 private:
  bool tampered_ = false;
};

}  // namespace psi

#endif  // PSI_TESTS_MPC_OMEGA_TAMPER_NETWORK_H_
