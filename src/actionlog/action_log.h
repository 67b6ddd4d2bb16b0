// The action log L(User, Time, Action) of Section 3: each record states that
// a user performed an action at a time. Invariant maintained throughout the
// library: any given user performs any given action at most once (repeat
// purchases collapse to the first, as the paper specifies).

#ifndef PSI_ACTIONLOG_ACTION_LOG_H_
#define PSI_ACTIONLOG_ACTION_LOG_H_

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace psi {

/// \brief Dense action identifier in [0, num_actions).
using ActionId = uint32_t;

/// \brief One log record: user `user` performed action `action` at `time`.
struct ActionRecord {
  NodeId user;
  ActionId action;
  uint64_t time;

  bool operator==(const ActionRecord&) const = default;
};

/// \brief An action log owned by one party (or the conceptual union).
class ActionLog {
 public:
  ActionLog() = default;

  /// \brief Appends a record; keeps the earliest record when a (user, action)
  /// pair repeats (the paper counts only the first purchase).
  void Add(const ActionRecord& record);

  /// \brief Appends all records of another log, with the same dedup rule.
  void Merge(const ActionLog& other);

  const std::vector<ActionRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// \brief Time of (user, action), or nullopt-like miss via `found`.
  bool Lookup(NodeId user, ActionId action, uint64_t* time_out) const;

  /// \brief Largest timestamp in the log (0 for an empty log).
  uint64_t MaxTime() const;

  /// \brief Largest action id + 1 (0 for an empty log).
  ActionId MaxActionId() const;

  /// \brief Largest user id + 1 (0 for an empty log).
  NodeId MaxUserId() const;

  /// \brief All records of one action, unsorted.
  std::vector<ActionRecord> RecordsOfAction(ActionId action) const;

 private:
  static uint64_t Key(NodeId user, ActionId action) {
    return (static_cast<uint64_t>(user) << 32) | action;
  }

  std::vector<ActionRecord> records_;
  std::unordered_map<uint64_t, size_t> seen_;  // (user, action) -> record idx
};

/// \brief Encodes records as a varint count, then one (u32 user, u32 action,
/// u64 time) little-endian triple per record: the form a provider's log
/// takes in session state and on the wire.
std::vector<uint8_t> PackRecords(const std::vector<ActionRecord>& records);

/// \brief A PackRecords buffer, validated once and then read in place, so a
/// consumer can build its own layout without an intermediate record vector.
/// The buffer must outlive the view.
class PackedRecords {
 public:
  /// \brief Checks the buffer's count against its length. SerializationError
  /// on an oversized count or trailing bytes.
  [[nodiscard]] static Result<PackedRecords> Open(const std::vector<uint8_t>& buf);

  size_t size() const { return count_; }

  ActionRecord operator[](size_t k) const {
    const uint8_t* p = records_ + k * kRecordBytes;
    ActionRecord r;  // Little-endian host assumed, as in BinaryWriter.
    std::memcpy(&r.user, p, 4);
    std::memcpy(&r.action, p + 4, 4);
    std::memcpy(&r.time, p + 8, 8);
    return r;
  }

 private:
  static constexpr size_t kRecordBytes = 16;

  PackedRecords(const uint8_t* records, size_t count)
      : records_(records), count_(count) {}

  const uint8_t* records_;
  size_t count_;
};

/// \brief Decodes PackRecords output; rejects what PackedRecords::Open
/// rejects.
[[nodiscard]] Status UnpackRecords(const std::vector<uint8_t>& buf,
                                   std::vector<ActionRecord>* out);

}  // namespace psi

#endif  // PSI_ACTIONLOG_ACTION_LOG_H_
