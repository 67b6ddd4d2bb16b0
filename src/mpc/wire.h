// Shared wire codecs for the MPC protocols.
//
// Every protocol driver used to carry its own anonymous-namespace copy of
// these pack/unpack helpers; several of the older copies resized vectors from
// an attacker-controlled count before reading a single element. The shared
// versions follow the hardened BinaryReader discipline:
//
//   * counts are read with ReadCount(min_bytes_per_element) so a tiny buffer
//     can never drive a large allocation, and
//   * every decoder rejects trailing bytes, so a frame is either exactly one
//     message or an error.
//
// psi_lint's read-bounds check enforces this discipline going forward
// (docs/STATIC_ANALYSIS.md).

#ifndef PSI_MPC_WIRE_H_
#define PSI_MPC_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/biguint.h"
#include "common/annotations.h"
#include "common/serialize.h"
#include "common/status.h"
#include "graph/graph.h"

namespace psi {
namespace wire {

/// \brief Encodes an arc list as varint count + (u32 from, u32 to) pairs.
std::vector<uint8_t> PackArcs(const std::vector<Arc>& arcs);

/// \brief Decodes PackArcs output; rejects oversized counts and trailing
/// bytes.
[[nodiscard]] Status UnpackArcs(const std::vector<uint8_t>& buf,
                                std::vector<Arc>* out);

/// \brief UnpackArcs for an arc set received over users [0, num_nodes)
/// (an Omega_E' frame): an endpoint at or past num_nodes is a
/// ProtocolError, since receivers index per-user state by endpoint.
[[nodiscard]] Status UnpackArcSet(const std::vector<uint8_t>& buf,
                                  size_t num_nodes, std::vector<Arc>* out);

/// \brief Encodes a BigUInt batch as varint count + serialized elements.
std::vector<uint8_t> PackBigUInts(std::span<const BigUInt> v);

/// \brief Decodes PackBigUInts output; rejects oversized counts and trailing
/// bytes.
[[nodiscard]] Status UnpackBigUInts(const std::vector<uint8_t>& buf,
                                    std::vector<BigUInt>* out);

/// \brief Reads one PackBigUInts batch from `r`, leaving what follows it.
[[nodiscard]] Status UnpackBigUInts(BinaryReader* r, std::vector<BigUInt>* out);

/// \brief Encodes a BigInt batch as varint count + serialized elements.
std::vector<uint8_t> PackBigInts(std::span<const BigInt> v);

/// \brief Decodes PackBigInts output; rejects oversized counts and trailing
/// bytes.
[[nodiscard]] Status UnpackBigInts(const std::vector<uint8_t>& buf,
                                   std::vector<BigInt>* out);

/// \brief Reads one PackBigInts batch from `r`, leaving what follows it.
[[nodiscard]] Status UnpackBigInts(BinaryReader* r, std::vector<BigInt>* out);

/// \brief Encodes a u64 batch as varint count + fixed-width u64 elements
/// (checkpointed counter vectors in mpc/session stages).
std::vector<uint8_t> PackU64s(const std::vector<uint64_t>& v);

/// \brief Decodes PackU64s output; rejects oversized counts and trailing
/// bytes.
[[nodiscard]] Status UnpackU64s(const std::vector<uint8_t>& buf,
                                std::vector<uint64_t>* out);

// ---------------------------------------------------------------------------
// Remote stage execution (ProtocolId::kExec). An ExecRequest asks the daemon
// hosting `party` to run one registered stage program against that party's
// SessionState; the ExecResponse ships the post-stage state and advanced RNG
// snapshots back — the daemon-side checkpoint the host commits. Both codecs
// are versioned and follow the hardened decode discipline (bounded counts,
// no trailing bytes): a daemon parses requests from the wire.
// ---------------------------------------------------------------------------

/// \brief Version tag of the exec request/response wire format.
inline constexpr uint32_t kExecWireVersion = 1;

/// \brief Step tags of ProtocolId::kExec envelopes. The envelope `seq`
/// field carries the stage index so late results of a timed-out call are
/// recognizably stale.
inline constexpr uint16_t kExecStepRequest = 1;
inline constexpr uint16_t kExecStepResult = 2;

/// \brief A labelled RNG snapshot (label as registered on the session).
/// The snapshot bytes determine the party's future secret draws — they ride
/// the exec channel only, which terminates at the party's own daemon.
using ExecRngBlob = std::pair<std::string, std::vector<uint8_t>>;

/// \brief One stage-program invocation.
struct ExecRequest {
  std::string session;        ///< Session name (daemon slot key).
  std::string program;        ///< Registry key, e.g. "p6/encrypt".
  uint32_t stage_index = 0;   ///< Position in the session's stage list.
  uint32_t attempt = 1;       ///< Host-side attempt counter (logs only).
  uint32_t party = 0;         ///< The executing party.
  /// When true, `state_blob` carries the party's full durable state (fresh
  /// daemon, or restore after reconnect). When false the daemon must
  /// already hold state for (session, party) at exactly `stage_index`
  /// completed stages, else it answers kNeedState. RNG snapshots always
  /// ride along (tiny; listed in the stage spec's label order) — the host
  /// stays the authority on randomness, so a replayed request re-derives
  /// bitwise the same draws.
  bool includes_state = false;
  PSI_SECRET std::vector<uint8_t> state_blob;  ///< SessionState::Serialize.
  PSI_SECRET std::vector<ExecRngBlob> rng_blobs;
};

/// \brief What happened to an ExecRequest.
enum class ExecOutcome : uint8_t {
  kOk = 0,           ///< Program ran; state/rng blobs are the new checkpoint.
  kNeedState = 1,    ///< Daemon holds no matching state; resend with it.
  kError = 2,        ///< Program ran and failed (message has the status).
  kUnsupported = 3,  ///< Program unknown to this daemon's registry.
};

/// \brief The daemon's answer: outcome plus, on kOk, the daemon-side
/// checkpoint (post-stage party state, advanced RNG snapshots, metered
/// crypto ops).
struct ExecResponse {
  ExecOutcome outcome = ExecOutcome::kError;
  std::string message;       ///< Error detail for kError / kUnsupported.
  bool from_cache = false;   ///< Served from the daemon's result cache.
  uint64_t crypto_ops = 0;   ///< Ops the program metered (kOk only).
  PSI_SECRET std::vector<uint8_t> state_blob;
  PSI_SECRET std::vector<ExecRngBlob> rng_blobs;
};

/// \brief Encodes an ExecRequest (versioned).
std::vector<uint8_t> PackExecRequest(const ExecRequest& req);

/// \brief Decodes PackExecRequest output; rejects version mismatches,
/// oversized counts and trailing bytes.
[[nodiscard]] Status UnpackExecRequest(const std::vector<uint8_t>& buf,
                                       ExecRequest* out);

/// \brief Encodes an ExecResponse (versioned).
std::vector<uint8_t> PackExecResponse(const ExecResponse& resp);

/// \brief Decodes PackExecResponse output; rejects version mismatches,
/// unknown outcomes, oversized counts and trailing bytes.
[[nodiscard]] Status UnpackExecResponse(const std::vector<uint8_t>& buf,
                                        ExecResponse* out);

}  // namespace wire
}  // namespace psi

#endif  // PSI_MPC_WIRE_H_
