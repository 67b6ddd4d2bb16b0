#include "actionlog/counters.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace psi {

std::vector<uint64_t> ComputeActionCounts(const ActionLog& log,
                                          size_t num_users) {
  std::vector<uint64_t> a(num_users, 0);
  for (const auto& r : log.records()) {
    if (r.user < num_users) ++a[r.user];
  }
  return a;
}

namespace {

// One (action, time) entry of a user's row.
struct RowEntry {
  ActionId action;
  uint64_t time;
};

// A flat per-user view of a log in compressed sparse rows: user u's records
// are entries_[offsets_[u] .. offsets_[u + 1]), sorted by action. Rows stop
// at the smaller of the largest pair endpoint and the largest user in the
// log (users past either bound can share no action with the other side), so
// like the a_i vector the view grows with the graph's node ids.
class UserRows {
 public:
  UserRows(const ActionLog& log, const std::vector<Arc>& pairs) {
    size_t pair_rows = 0, log_rows = 0;
    for (const Arc& arc : pairs) {
      pair_rows = std::max(pair_rows, size_t{std::max(arc.from, arc.to)} + 1);
    }
    for (const ActionRecord& r : log.records()) {
      log_rows = std::max(log_rows, size_t{r.user} + 1);
    }
    const size_t num_rows = std::min(pair_rows, log_rows);
    // Counting sort by user: count, prefix-sum, scatter.
    offsets_.assign(num_rows + 1, 0);
    for (const ActionRecord& r : log.records()) {
      if (r.user < num_rows) ++offsets_[r.user + 1];
    }
    for (size_t u = 0; u < num_rows; ++u) offsets_[u + 1] += offsets_[u];
    entries_.resize(offsets_[num_rows]);
    std::vector<size_t> next(offsets_.begin(), offsets_.end() - 1);
    for (const ActionRecord& r : log.records()) {
      if (r.user < num_rows) entries_[next[r.user]++] = {r.action, r.time};
    }
    // ActionLog keeps (user, action) unique, so each row becomes strictly
    // increasing in action.
    const auto by_action = [](const RowEntry& x, const RowEntry& y) {
      return x.action < y.action;
    };
    RowEntry* row = entries_.data();
    for (size_t u = 0; u < num_rows; ++u) {
      std::sort(row + offsets_[u], row + offsets_[u + 1], by_action);
    }
  }

  // Calls on_common(t_i, t_j) for every action both users performed, in
  // action order, by a two-pointer merge of their rows.
  template <typename OnCommon>
  void ForEachCommonAction(size_t i, size_t j, OnCommon on_common) const {
    if (std::max(i, j) >= offsets_.size() - 1) return;
    const RowEntry* x = entries_.data() + offsets_[i];
    const RowEntry* x_end = entries_.data() + offsets_[i + 1];
    const RowEntry* y = entries_.data() + offsets_[j];
    const RowEntry* y_end = entries_.data() + offsets_[j + 1];
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
  std::vector<size_t> offsets_;
  std::vector<RowEntry> entries_;
};

}  // namespace

std::vector<uint64_t> ComputeFollowCounts(const ActionLog& log,
                                          const std::vector<Arc>& pairs,
                                          uint64_t h) {
  const UserRows rows(log, pairs);
  std::vector<uint64_t> b(pairs.size(), 0);
  ParallelFor(pairs.size(), [&](size_t p) {
    uint64_t count = 0;
    rows.ForEachCommonAction(pairs[p].from, pairs[p].to, [&](uint64_t ti, uint64_t tj) {
      if (tj > ti && tj - ti <= h) ++count;
    });
    b[p] = count;
  });
  return b;
}

std::vector<std::vector<uint64_t>> ComputeExactDelayCounts(
    const ActionLog& log, const std::vector<Arc>& pairs, uint64_t h) {
  const UserRows rows(log, pairs);
  std::vector<std::vector<uint64_t>> c(pairs.size(),
                                       std::vector<uint64_t>(h, 0));
  ParallelFor(pairs.size(), [&](size_t p) {
    std::vector<uint64_t>& cp = c[p];
    rows.ForEachCommonAction(pairs[p].from, pairs[p].to, [&](uint64_t ti, uint64_t tj) {
      if (tj > ti && tj - ti <= h) ++cp[tj - ti - 1];
    });
  });
  return c;
}

TemporalWeights TemporalWeights::Uniform(uint64_t h) {
  PSI_CHECK(h > 0) << "window width must be positive";
  TemporalWeights tw;
  tw.w.assign(h, 1.0);
  return tw;
}

TemporalWeights TemporalWeights::LinearDecay(uint64_t h) {
  PSI_CHECK(h > 0) << "window width must be positive";
  TemporalWeights tw;
  tw.w.resize(h);
  double sum = 0.0;
  for (uint64_t l = 0; l < h; ++l) {
    tw.w[l] = static_cast<double>(h - l);
    sum += tw.w[l];
  }
  for (auto& x : tw.w) x *= static_cast<double>(h) / sum;
  return tw;
}

TemporalWeights TemporalWeights::ExponentialDecay(uint64_t h, double rate) {
  PSI_CHECK(h > 0) << "window width must be positive";
  PSI_CHECK(rate >= 0.0) << "decay rate must be non-negative";
  TemporalWeights tw;
  tw.w.resize(h);
  double sum = 0.0;
  for (uint64_t l = 0; l < h; ++l) {
    tw.w[l] = std::exp(-rate * static_cast<double>(l));
    sum += tw.w[l];
  }
  for (auto& x : tw.w) x *= static_cast<double>(h) / sum;
  return tw;
}

std::vector<uint64_t> TemporalWeights::Scaled(uint64_t scale) const {
  std::vector<uint64_t> out(w.size());
  for (size_t l = 0; l < w.size(); ++l) {
    out[l] = static_cast<uint64_t>(std::llround(w[l] * static_cast<double>(scale)));
  }
  return out;
}

std::vector<double> ComputeWeightedFollowCounts(
    const ActionLog& log, const std::vector<Arc>& pairs,
    const TemporalWeights& weights) {
  auto c = ComputeExactDelayCounts(log, pairs, weights.h());
  std::vector<double> out(pairs.size(), 0.0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    for (uint64_t l = 0; l < weights.h(); ++l) {
      out[p] += weights.w[l] * static_cast<double>(c[p][l]);
    }
  }
  return out;
}

}  // namespace psi
