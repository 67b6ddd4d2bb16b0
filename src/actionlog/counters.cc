#include "actionlog/counters.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace psi {

namespace {

// The largest pair endpoint + 1.
size_t PairRows(const std::vector<Arc>& pairs) {
  size_t rows = 0;
  for (const Arc& arc : pairs) {
    rows = std::max(rows, size_t{std::max(arc.from, arc.to)} + 1);
  }
  return rows;
}

}  // namespace

template <typename RecordAt>
void UserRows::Build(size_t count, RecordAt record_at) {
  size_t log_rows = 0;
  for (size_t k = 0; k < count; ++k) {
    log_rows = std::max(log_rows, size_t{record_at(k).user} + 1);
  }
  const size_t num_rows = std::min(max_rows_, log_rows);
  // Counting sort by user: count, prefix-sum, scatter.
  offsets_.assign(num_rows + 1, 0);
  for (size_t k = 0; k < count; ++k) {
    const NodeId user = record_at(k).user;
    if (user < num_rows) ++offsets_[user + 1];
  }
  for (size_t u = 0; u < num_rows; ++u) offsets_[u + 1] += offsets_[u];
  entries_.resize(offsets_[num_rows]);
  std::vector<size_t> next(offsets_.begin(), offsets_.end() - 1);
  for (size_t k = 0; k < count; ++k) {
    const ActionRecord r = record_at(k);
    if (r.user < num_rows) entries_[next[r.user]++] = {r.action, r.time};
  }
  // Sort each row by (action, time) and keep each action's first entry, so
  // rows are strictly increasing in action and a repeat keeps its earliest
  // time. Rows only shrink, so compacting in place never overtakes a row
  // not yet read.
  const auto by_action_time = [](const Entry& x, const Entry& y) {
    return x.action != y.action ? x.action < y.action : x.time < y.time;
  };
  size_t kept = 0;
  for (size_t u = 0; u < num_rows; ++u) {
    const size_t begin = offsets_[u];
    const size_t end = offsets_[u + 1];
    std::sort(entries_.begin() + static_cast<ptrdiff_t>(begin),
              entries_.begin() + static_cast<ptrdiff_t>(end), by_action_time);
    offsets_[u] = kept;
    for (size_t e = begin; e < end; ++e) {
      if (kept > offsets_[u] && entries_[kept - 1].action == entries_[e].action) {
        continue;
      }
      entries_[kept++] = entries_[e];
    }
  }
  offsets_[num_rows] = kept;
  entries_.resize(kept);
}

UserRows::UserRows(const std::vector<ActionRecord>& records, size_t max_rows)
    : max_rows_(max_rows) {
  Build(records.size(), [&records](size_t k) { return records[k]; });
}

UserRows::UserRows(const PackedRecords& records, size_t max_rows)
    : max_rows_(max_rows) {
  Build(records.size(), [&records](size_t k) { return records[k]; });
}

size_t CounterRows(size_t num_users, const std::vector<Arc>& pairs) {
  return std::max(num_users, PairRows(pairs));
}

std::vector<uint64_t> ComputeActionCounts(const ActionLog& log,
                                          size_t num_users) {
  std::vector<uint64_t> a(num_users, 0);
  for (const auto& r : log.records()) {
    if (r.user < num_users) ++a[r.user];
  }
  return a;
}

std::vector<uint64_t> ComputeActionCounts(const UserRows& rows,
                                          size_t num_users) {
  PSI_CHECK(rows.max_rows() >= num_users) << "rows do not span every user";
  std::vector<uint64_t> a(num_users);
  for (size_t i = 0; i < num_users; ++i) a[i] = rows.RowSize(i);
  return a;
}

std::vector<uint64_t> ComputeFollowCounts(const ActionLog& log,
                                          const std::vector<Arc>& pairs,
                                          uint64_t h) {
  return ComputeFollowCounts(UserRows(log.records(), PairRows(pairs)), pairs, h);
}

std::vector<uint64_t> ComputeFollowCounts(const UserRows& rows,
                                          const std::vector<Arc>& pairs,
                                          uint64_t h) {
  PSI_CHECK(rows.max_rows() >= PairRows(pairs)) << "rows do not span the pairs";
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
  return ComputeExactDelayCounts(UserRows(log.records(), PairRows(pairs)),
                                 pairs, h);
}

std::vector<std::vector<uint64_t>> ComputeExactDelayCounts(
    const UserRows& rows, const std::vector<Arc>& pairs, uint64_t h) {
  PSI_CHECK(rows.max_rows() >= PairRows(pairs)) << "rows do not span the pairs";
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
