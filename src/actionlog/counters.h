// The plaintext counters of Section 3.1 — the quantities the MPC protocols
// compute shares of:
//   a_i      : number of actions user v_i performed,
//   b^h_ij   : number of actions where v_j followed v_i within h time steps,
//   c^l_ij   : number of actions where v_j followed v_i after exactly l steps.
//
// Convention (see DESIGN.md): "followed within h" means t_i < t_j <= t_i + h,
// strictly after (Definition 3.1 requires Delta t > 0). These satisfy
// b^h_ij = sum_{l=1..h} c^l_ij, which the property tests assert.

#ifndef PSI_ACTIONLOG_COUNTERS_H_
#define PSI_ACTIONLOG_COUNTERS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "actionlog/action_log.h"
#include "common/status.h"
#include "graph/graph.h"

namespace psi {

/// \brief A log as flat per-user rows (compressed sparse rows), the input of
/// the counter kernels below. Row u holds one (action, time) entry per action
/// user u performed, sorted by action. When records repeat a (user, action)
/// the earliest time wins — ActionLog::Add's rule — so rows built from raw
/// records equal the rows of the ActionLog those records would make.
class UserRows {
 public:
  /// \brief Rows of `records` (any order, duplicates allowed) for users below
  /// `max_rows`; records of other users are dropped. Rows past the log's
  /// largest user are left out too: they would be empty.
  UserRows(const std::vector<ActionRecord>& records, size_t max_rows);

  /// \brief The same, read straight from a packed log with no intermediate
  /// record vector or ActionLog.
  UserRows(const PackedRecords& records, size_t max_rows);

  /// \brief The `max_rows` the rows were built for: users at or past it
  /// count as absent.
  size_t max_rows() const { return max_rows_; }

  /// \brief Distinct actions of user `u` (0 for users without a row).
  uint64_t RowSize(size_t u) const {
    return u + 1 < offsets_.size() ? offsets_[u + 1] - offsets_[u] : 0;
  }

  /// \brief Calls on_common(t_i, t_j) for every action both users performed,
  /// in action order, by a two-pointer merge of their rows.
  template <typename OnCommon>
  void ForEachCommonAction(size_t i, size_t j, OnCommon on_common) const {
    if (std::max(i, j) + 1 >= offsets_.size()) return;
    const Entry* x = entries_.data() + offsets_[i];
    const Entry* x_end = entries_.data() + offsets_[i + 1];
    const Entry* y = entries_.data() + offsets_[j];
    const Entry* y_end = entries_.data() + offsets_[j + 1];
    while (x != x_end && y != y_end) {
      if (x->action < y->action) {
        ++x;
      } else if (y->action < x->action) {
        ++y;
      } else {
        on_common(x->time, y->time);
        ++x;
        ++y;
      }
    }
  }

 private:
  struct Entry {
    ActionId action;
    uint64_t time;
  };

  // Counting sort of `count` records by user (record_at(k) yields the k-th),
  // then a per-row sort by (action, time) that keeps each action's first.
  template <typename RecordAt>
  void Build(size_t count, RecordAt record_at);

  size_t max_rows_;
  std::vector<size_t> offsets_;
  std::vector<Entry> entries_;
};

/// \brief The `max_rows` a counter vector over users 0..num_users-1 and
/// `pairs` reads: enough for every a_i and every pair endpoint.
size_t CounterRows(size_t num_users, const std::vector<Arc>& pairs);

/// \brief a_i for every user 0..num_users-1.
std::vector<uint64_t> ComputeActionCounts(const ActionLog& log,
                                          size_t num_users);

/// \brief a_i for every user 0..num_users-1; `rows` must span num_users.
std::vector<uint64_t> ComputeActionCounts(const UserRows& rows,
                                          size_t num_users);

/// \brief b^h_ij for each requested (i, j) pair, in pair order.
std::vector<uint64_t> ComputeFollowCounts(const ActionLog& log,
                                          const std::vector<Arc>& pairs,
                                          uint64_t h);
std::vector<uint64_t> ComputeFollowCounts(const UserRows& rows,
                                          const std::vector<Arc>& pairs,
                                          uint64_t h);

/// \brief c^l_ij for each pair, as pairs.size() x h values: out[p][l-1] is
/// the exact-delay-l count of pair p.
std::vector<std::vector<uint64_t>> ComputeExactDelayCounts(
    const ActionLog& log, const std::vector<Arc>& pairs, uint64_t h);
std::vector<std::vector<uint64_t>> ComputeExactDelayCounts(
    const UserRows& rows, const std::vector<Arc>& pairs, uint64_t h);

/// \brief Temporal weights w_1..w_h for the Eq. (2) influence definition.
/// The paper constrains 0 < w_l and sum w_l = h (Eq. 1 is w_l = 1).
struct TemporalWeights {
  std::vector<double> w;

  /// \brief w_l = 1 for all l — reduces Eq. (2) to Eq. (1).
  static TemporalWeights Uniform(uint64_t h);

  /// \brief Linearly decaying weights, normalized to sum h.
  static TemporalWeights LinearDecay(uint64_t h);

  /// \brief Exponentially decaying weights w_l ~ exp(-rate*(l-1)),
  /// normalized to sum h.
  static TemporalWeights ExponentialDecay(uint64_t h, double rate);

  uint64_t h() const { return w.size(); }

  /// \brief Fixed-point integer weights round(w_l * scale): the secure
  /// pipeline works on integers, so Eq. (2) numerators are aggregated as
  /// sum_l W_l c^l and descaled after division (Section 5.1 variant).
  std::vector<uint64_t> Scaled(uint64_t scale) const;
};

/// \brief Eq. (2) weighted numerator sum_l w_l c^l_ij for each pair.
std::vector<double> ComputeWeightedFollowCounts(
    const ActionLog& log, const std::vector<Arc>& pairs,
    const TemporalWeights& weights);

}  // namespace psi

#endif  // PSI_ACTIONLOG_COUNTERS_H_
