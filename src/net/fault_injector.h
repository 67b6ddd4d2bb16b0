// Deterministic fault injection for every transport backend.
//
// FaultInjector owns the seeded RNG, the fault plan and the fault counters,
// but touches no mailbox, no socket and no frame log: Network (which keeps
// the one pristine retransmit log) feeds each outgoing frame through
// OnTransmit and each served retransmission through OnRetransmit, and
// hands what survives to the backend's Transmit hook. Because every RNG
// draw happens inside this class, a given (plan, message sequence)
// produces the same fault schedule on the simulator and over sockets. The
// chaos invariant the test suite enforces on top (docs/FAULTS.md): a
// protocol driver run under ANY fault schedule either produces exactly the
// fault-free result or terminates promptly with a clean non-OK Status —
// never a wrong answer, a crash, or a hang.

#ifndef PSI_NET_FAULT_INJECTOR_H_
#define PSI_NET_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/network.h"

namespace psi {

/// \brief Wildcard PartyId accepted by FaultRule matchers.
inline constexpr PartyId kAnyParty = 0xFFFFFFFFu;

/// \brief What a firing fault rule does to a frame in flight.
enum class FaultKind : uint8_t {
  kDrop = 0,      ///< Frame vanishes.
  kDuplicate,     ///< Frame is delivered twice.
  kReorder,       ///< Frame jumps ahead of the channel queue.
  kCorrupt,       ///< One random bit of the frame is flipped.
  kTruncate,      ///< Frame is cut to a random proper prefix.
  kDelay,         ///< Frame is held until the next BeginRound.
};

const char* FaultKindToString(FaultKind kind);

/// \brief One fault matcher: which messages it applies to and how often.
struct FaultRule {
  FaultKind kind = FaultKind::kDrop;
  PartyId from = kAnyParty;   ///< Sender filter (kAnyParty matches all).
  PartyId to = kAnyParty;     ///< Receiver filter.
  uint64_t round_min = 0;     ///< First round index the rule is active in.
  uint64_t round_max = UINT64_MAX;  ///< Last active round index.
  double probability = 1.0;   ///< Per-matching-message firing probability.
  uint32_t max_triggers = UINT32_MAX;  ///< Firing budget across the run.
};

/// \brief A party that stops participating after a given round: all its
/// transmissions (including retransmissions) are lost while it is down, and
/// frames it sent while down are never retained for retransmission.
///
/// With the default `restart_round` the crash is permanent. A finite
/// `restart_round` models crash-*restart*: the party is down for round
/// indices in (after_round, restart_round) and rejoins from `restart_round`
/// on — having lost its volatile state, which is exactly the failure a
/// checkpointed ProtocolSession (mpc/session.h) recovers from. Restarting
/// parties keep the frames they sent before the crash retained for
/// retransmission (durable storage, like the session checkpoint).
struct CrashSpec {
  PartyId party = kAnyParty;
  uint64_t after_round = 0;  ///< Down in every round index > after_round...
  uint64_t restart_round = UINT64_MAX;  ///< ...until this round (exclusive).
};

/// \brief A complete, seeded fault schedule.
struct FaultPlan {
  uint64_t seed = 0;  ///< Seeds the coin flips and mutation choices.
  std::vector<FaultRule> rules;
  std::optional<CrashSpec> crash;

  /// \brief The all-zero plan: a network running it behaves exactly like
  /// one without an injector.
  static FaultPlan None() { return FaultPlan{}; }

  /// \brief A randomized chaos schedule: 1-3 rules with random kinds,
  /// probabilities and budgets, plus an occasional crash of one of
  /// `num_parties` parties. Fully determined by `seed`.
  static FaultPlan RandomPlan(uint64_t seed, size_t num_parties);

  /// \brief A randomized crash-restart schedule for session recovery tests:
  /// always crashes one non-host party after a random round and restarts it
  /// a few rounds later, plus 0-2 light fault rules. Fully determined by
  /// `seed`. Kept separate from RandomPlan so its draw order (and therefore
  /// every existing chaos transcript) is unchanged.
  static FaultPlan RandomRestartPlan(uint64_t seed, size_t num_parties);
};

/// \brief Counters of what the fault layer actually did.
struct FaultStats {
  uint64_t transmitted = 0;    ///< Frames that entered the fault pipeline.
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t corrupted = 0;
  uint64_t truncated = 0;
  uint64_t delayed = 0;
  uint64_t crash_dropped = 0;  ///< Sends silenced by a crash.
  uint64_t retransmits_served = 0;
  uint64_t retransmits_refused = 0;

  uint64_t injected() const {
    return dropped + duplicated + reordered + corrupted + truncated + delayed;
  }
};

/// \brief The plan-driven fault pipeline, independent of any transport.
class FaultInjector {
 public:
  /// \brief Channel key (from, to), mirroring Network's internal key.
  using ChannelKey = std::pair<PartyId, PartyId>;

  /// \brief What Network must do with a frame: deliver `copies`
  /// identical copies of `frame` (0: dropped, crashed or held; 2:
  /// duplicated), ahead of the channel queue when `front` (reordered).
  struct Verdict {
    int copies = 1;
    bool front = false;
    std::vector<uint8_t> frame;  ///< Possibly mutated; empty when copies == 0.
  };

  explicit FaultInjector(FaultPlan plan);

  /// \brief Runs one outgoing frame through the pipeline: crash check,
  /// rule matching, mutation. `round` is the network's current round
  /// index. RNG draw order is part of this function's contract — see the
  /// file comment.
  Verdict OnTransmit(uint64_t round, PartyId from, PartyId to,
                     std::vector<uint8_t> frame);

  /// \brief Re-runs the pipeline on a retransmitted `pristine` copy (a
  /// retransmission travels the same unreliable wire): a drop or delay
  /// loses it, a corrupt or truncate damages it. The caller has already
  /// checked that the sender is up. `channel` names the channel in errors.
  [[nodiscard]] Result<std::vector<uint8_t>> OnRetransmit(
      uint64_t round, PartyId from, PartyId to, const std::vector<uint8_t>& pristine,
      const std::string& channel);

  /// \brief Counts a retransmission request Network refused.
  void OnRetransmitRefused() { ++stats_.retransmits_refused; }

  /// \brief Frames whose kDelay hold expires now, in original send order.
  /// Network calls this at every round boundary and delivers them
  /// before the round's own traffic.
  std::vector<std::pair<ChannelKey, std::vector<uint8_t>>> TakeDelayed();

  /// \brief True when `party` is down at round index `round`.
  bool Crashed(PartyId party, uint64_t round) const;

  const FaultStats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  /// Index into plan_.rules of the first rule that matches and fires, or -1.
  int Decide(uint64_t round, PartyId from, PartyId to);
  std::vector<uint8_t> Mutate(FaultKind kind, std::vector<uint8_t> frame);

  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  std::vector<uint32_t> triggers_used_;  // Parallel to plan_.rules.
  // Frames held by kDelay until the next round boundary.
  std::vector<std::pair<ChannelKey, std::vector<uint8_t>>> delayed_;
};

}  // namespace psi

#endif  // PSI_NET_FAULT_INJECTOR_H_
