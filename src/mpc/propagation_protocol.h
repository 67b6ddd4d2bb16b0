// Protocol 6 (Section 6.1): secure computation of the propagation graphs
// PG(alpha) for all actions.
//
// H publishes the obfuscated arc set Omega_E' and a public encryption key.
// Every provider computes, for each action it controls, the vector
// Delta_alpha of time differences over Omega_E' (0 where no influence
// episode), encrypts it under H's key and routes it through P1 — so H cannot
// link ciphertexts to their producing provider beyond what P1 forwards, and
// P1 (without the private key) learns nothing about its peers' data. H
// decrypts and keeps, per action, exactly the arcs of E with Delta > 0
// (the arc labels of Definition 3.1).
//
// Encryption modes:
//  * kPerInteger — the paper's accounting (Table 2): one z-bit RSA
//    ciphertext per integer, randomized with a 64-bit pad so equal Deltas
//    do not produce equal ciphertexts.
//  * kHybrid    — one RSA-KEM + ChaCha20 stream per Delta vector (the
//    production configuration; ablation A4 quantifies the gap).
//  * kPackedInteger — kPerInteger's accounting shrunk by slot packing
//    (crypto/packing.h): k = floor((z - 65) / BitLength(delta_bound))
//    Deltas ride in each ciphertext, whose low 64 bits hold the random
//    pad. An action whose Delta exceeds the public bound falls back to
//    kPerInteger for that one vector (the mode byte is per action).

#ifndef PSI_MPC_PROPAGATION_PROTOCOL_H_
#define PSI_MPC_PROPAGATION_PROTOCOL_H_

#include <string>
#include <utility>
#include <vector>

#include "actionlog/action_log.h"
#include "common/random.h"
#include "common/status.h"
#include "crypto/rsa.h"
#include "graph/graph.h"
#include "graph/propagation_graph.h"
#include "mpc/session.h"
#include "net/network.h"

namespace psi {

/// \brief Registers Protocol 6's stage programs ("p6/encrypt") with the
/// global StageProgramRegistry. Idempotent; RunSession calls it, and the
/// psid execution engine calls it at startup so a daemon can run the
/// programs without ever driving a session.
void RegisterPropagationStagePrograms();

/// \brief Checkpoint codec for H's RSA private key, CRT values included so
/// that a restarted host decrypts at full speed. Durable storage only: the
/// private key never crosses the wire.
std::vector<uint8_t> PackRsaPrivateKey(const RsaPrivateKey& key);

/// \brief Inverse of PackRsaPrivateKey. Returns SerializationError unless
/// `buf` is exactly one key with d != 0 and a consistent CRT block: p and q
/// odd and >= 3, p*q = n, d_mod_p1 < p-1, d_mod_q1 < q-1 and q_inv_p < p.
/// A damaged checkpoint thus fails here instead of aborting in RsaDecrypt.
[[nodiscard]] Status UnpackRsaPrivateKey(const std::vector<uint8_t>& buf,
                                         RsaPrivateKey* out);

/// \brief Protocol 6 parameters.
struct Protocol6Config {
  double obfuscation_factor = 2.0;  ///< The c > 1 of step 1.
  size_t rsa_bits = 512;            ///< Modulus size (z = rsa_bits).
  enum class EncryptionMode { kPerInteger, kHybrid, kPackedInteger };
  EncryptionMode encryption = EncryptionMode::kPerInteger;
  /// Public inclusive bound on Delta values for kPackedInteger (Deltas are
  /// timestamp differences, so a deployment bounds them by the log's time
  /// horizon). Vectors that exceed it fall back to kPerInteger.
  uint64_t packed_delta_bound = (1ull << 32) - 1;
};

/// \brief Host-side output.
struct Protocol6Output {
  /// graphs[alpha] is PG(alpha); empty graph when no one performed alpha.
  std::vector<PropagationGraph> graphs;
};

/// \brief Observations recorded for privacy tests.
struct Protocol6Views {
  std::vector<Arc> omega;            ///< What the providers saw of E.
  uint64_t p1_relayed_bytes = 0;     ///< Ciphertext bytes through P1.
  size_t p1_relayed_ciphertexts = 0; ///< Ciphertext count through P1.
};

/// \brief Orchestrates Protocol 6 across the simulated network.
class PropagationGraphProtocol {
 public:
  PropagationGraphProtocol(Network* network, PartyId host,
                           std::vector<PartyId> providers,
                           Protocol6Config config);

  /// \brief Runs the protocol (exclusive case: every action's records live
  /// at exactly one provider).
  ///
  /// \param num_actions public |A|; output graphs are indexed by action id.
  [[nodiscard]] Result<Protocol6Output> Run(const SocialGraph& host_graph,
                              size_t num_actions,
                              const std::vector<ActionLog>& provider_logs,
                              Rng* host_rng,
                              const std::vector<Rng*>& provider_rngs);

  /// \brief Runs the protocol as a checkpointed session (mpc/session.h):
  /// resumable stages (omega, keygen, one encrypt-P<k> per provider, relay,
  /// decode) under `retry`. The host's RSA private key checkpoints into its
  /// durable SessionState (never the wire), so a crash-restarted run
  /// decrypts with the original key and converges bitwise to the fault-free
  /// output. The encrypt-P<k> stages are registered stage programs
  /// ("p6/encrypt") placed on their providers: pass a
  /// RemoteSessionOrchestrator (mpc/remote_exec.h) as `orchestrator` to
  /// execute them on the providers' psid daemons; with the default
  /// orchestrator (nullptr: one is built from `retry`; when non-null,
  /// `retry` is ignored in favor of the orchestrator's own policy) they run
  /// in-process. `Run` is exactly this with a single attempt. `stats_out`
  /// (optional) receives the session's SessionStats.
  [[nodiscard]] Result<Protocol6Output> RunSession(
      const SocialGraph& host_graph, size_t num_actions,
      const std::vector<ActionLog>& provider_logs, Rng* host_rng,
      const std::vector<Rng*>& provider_rngs, const RetryPolicy& retry,
      SessionStats* stats_out = nullptr,
      SessionOrchestrator* orchestrator = nullptr);

  const Protocol6Views& views() const { return views_; }

  /// \brief Hands the recorded views to the caller without copying them.
  Protocol6Views TakeViews() && { return std::move(views_); }

 private:
  Network* network_;
  PartyId host_;
  std::vector<PartyId> providers_;
  Protocol6Config config_;
  Protocol6Views views_;
};

}  // namespace psi

#endif  // PSI_MPC_PROPAGATION_PROTOCOL_H_
