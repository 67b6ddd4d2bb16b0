#include "actionlog/action_log.h"

#include <algorithm>

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

}  // namespace psi
