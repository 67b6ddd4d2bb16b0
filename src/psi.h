// Umbrella header: pulls in the whole public API. Fine for applications and
// examples; library code includes the specific headers it needs.

#ifndef PSI_PSI_H_
#define PSI_PSI_H_

#include "actionlog/action_log.h"     // IWYU pragma: export
#include "actionlog/counters.h"       // IWYU pragma: export
#include "actionlog/generator.h"      // IWYU pragma: export
#include "actionlog/io.h"             // IWYU pragma: export
#include "actionlog/partition.h"      // IWYU pragma: export
#include "bigint/bigint.h"            // IWYU pragma: export
#include "bigint/biguint.h"           // IWYU pragma: export
#include "bigint/modular.h"           // IWYU pragma: export
#include "bigint/montgomery.h"        // IWYU pragma: export
#include "bigint/primes.h"            // IWYU pragma: export
#include "common/histogram.h"         // IWYU pragma: export
#include "common/random.h"            // IWYU pragma: export
#include "common/serialize.h"         // IWYU pragma: export
#include "common/stats.h"             // IWYU pragma: export
#include "common/status.h"            // IWYU pragma: export
#include "crypto/chacha20.h"          // IWYU pragma: export
#include "crypto/oblivious_transfer.h"  // IWYU pragma: export
#include "crypto/packing.h"           // IWYU pragma: export
#include "crypto/paillier.h"          // IWYU pragma: export
#include "crypto/permutation.h"       // IWYU pragma: export
#include "crypto/rsa.h"               // IWYU pragma: export
#include "crypto/sha256.h"            // IWYU pragma: export
#include "crypto/shift_cipher.h"      // IWYU pragma: export
#include "graph/generators.h"         // IWYU pragma: export
#include "graph/graph.h"              // IWYU pragma: export
#include "graph/io.h"                 // IWYU pragma: export
#include "graph/propagation_graph.h"  // IWYU pragma: export
#include "influence/em_learner.h"     // IWYU pragma: export
#include "influence/evaluation.h"     // IWYU pragma: export
#include "influence/influence_max.h"  // IWYU pragma: export
#include "influence/link_influence.h"  // IWYU pragma: export
#include "influence/segmented.h"      // IWYU pragma: export
#include "influence/user_score.h"     // IWYU pragma: export
#include "mpc/class_aggregation.h"    // IWYU pragma: export
#include "mpc/homomorphic_sum.h"      // IWYU pragma: export
#include "mpc/joint_random.h"         // IWYU pragma: export
#include "mpc/link_influence_protocol.h"  // IWYU pragma: export
#include "mpc/multi_host.h"           // IWYU pragma: export
#include "mpc/non_exclusive.h"        // IWYU pragma: export
#include "mpc/perfect_hiding.h"       // IWYU pragma: export
#include "mpc/propagation_protocol.h"  // IWYU pragma: export
#include "mpc/remote_exec.h"          // IWYU pragma: export
#include "mpc/wire.h"                 // IWYU pragma: export
#include "mpc/secure_division.h"      // IWYU pragma: export
#include "mpc/secure_sum.h"           // IWYU pragma: export
#include "mpc/secure_user_score.h"    // IWYU pragma: export
#include "mpc/segmented_influence.h"  // IWYU pragma: export
#include "mpc/session.h"             // IWYU pragma: export
#include "net/cost_model.h"           // IWYU pragma: export
#include "net/daemon.h"               // IWYU pragma: export
#include "net/envelope.h"             // IWYU pragma: export
#include "net/fault_injector.h"       // IWYU pragma: export
#include "net/network.h"              // IWYU pragma: export
#include "net/socket_transport.h"     // IWYU pragma: export
#include "net/socket_util.h"          // IWYU pragma: export
#include "privacy/gain_experiment.h"  // IWYU pragma: export
#include "privacy/leakage.h"          // IWYU pragma: export
#include "privacy/posterior.h"        // IWYU pragma: export

#endif  // PSI_PSI_H_
