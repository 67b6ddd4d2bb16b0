#include "actionlog/action_log.h"

#include <algorithm>

#include "common/serialize.h"

namespace psi {

void ActionLog::Add(const ActionRecord& record) {
  uint64_t key = Key(record.user, record.action);
  auto it = seen_.find(key);
  if (it != seen_.end()) {
    // Keep the earliest occurrence.
    if (record.time < records_[it->second].time) {
      records_[it->second].time = record.time;
    }
    return;
  }
  seen_.emplace(key, records_.size());
  records_.push_back(record);
}

void ActionLog::Merge(const ActionLog& other) {
  for (const auto& r : other.records_) Add(r);
}

bool ActionLog::Lookup(NodeId user, ActionId action, uint64_t* time_out) const {
  auto it = seen_.find(Key(user, action));
  if (it == seen_.end()) return false;
  if (time_out != nullptr) *time_out = records_[it->second].time;
  return true;
}

uint64_t ActionLog::MaxTime() const {
  uint64_t mx = 0;
  for (const auto& r : records_) mx = std::max(mx, r.time);
  return mx;
}

ActionId ActionLog::MaxActionId() const {
  ActionId mx = 0;
  for (const auto& r : records_) mx = std::max(mx, r.action + 1);
  return mx;
}

NodeId ActionLog::MaxUserId() const {
  NodeId mx = 0;
  for (const auto& r : records_) mx = std::max(mx, r.user + 1);
  return mx;
}

std::vector<ActionRecord> ActionLog::RecordsOfAction(ActionId action) const {
  std::vector<ActionRecord> out;
  for (const auto& r : records_) {
    if (r.action == action) out.push_back(r);
  }
  return out;
}

std::vector<uint8_t> PackRecords(const std::vector<ActionRecord>& records) {
  BinaryWriter w;
  w.WriteVarU64(records.size());
  for (const auto& r : records) {
    w.WriteU32(r.user);
    w.WriteU32(r.action);
    w.WriteU64(r.time);
  }
  return w.TakeBuffer();
}

Result<PackedRecords> PackedRecords::Open(const std::vector<uint8_t>& buf) {
  BinaryReader r(buf);
  uint64_t count = 0;
  PSI_RETURN_NOT_OK(r.ReadCount(&count, kRecordBytes));
  if (r.remaining() != count * kRecordBytes) {
    return Status::SerializationError(
        "packed records: byte length does not match the record count");
  }
  return PackedRecords(buf.data() + (buf.size() - r.remaining()), count);
}

Status UnpackRecords(const std::vector<uint8_t>& buf,
                     std::vector<ActionRecord>* out) {
  PSI_ASSIGN_OR_RETURN(const PackedRecords records, PackedRecords::Open(buf));
  out->resize(records.size());
  for (size_t k = 0; k < records.size(); ++k) (*out)[k] = records[k];
  return Status::OK();
}

}  // namespace psi
