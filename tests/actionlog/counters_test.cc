#include "actionlog/counters.h"

#include <gtest/gtest.h>

#include "actionlog/generator.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "mpc/link_influence_protocol.h"

namespace psi {
namespace {

// Hand-checkable fixture:
//   user 0: action 0 at t=0, action 1 at t=10
//   user 1: action 0 at t=2, action 1 at t=11
//   user 2: action 0 at t=5
ActionLog SmallLog() {
  ActionLog log;
  log.Add({0, 0, 0});
  log.Add({0, 1, 10});
  log.Add({1, 0, 2});
  log.Add({1, 1, 11});
  log.Add({2, 0, 5});
  return log;
}

TEST(CountersTest, ActionCounts) {
  auto a = ComputeActionCounts(SmallLog(), 4);
  EXPECT_EQ(a, (std::vector<uint64_t>{2, 2, 1, 0}));
}

TEST(CountersTest, ActionCountsIgnoreOutOfRangeUsers) {
  ActionLog log;
  log.Add({10, 0, 1});
  auto a = ComputeActionCounts(log, 3);
  EXPECT_EQ(a, (std::vector<uint64_t>{0, 0, 0}));
}

TEST(CountersTest, FollowCountsWindowSemantics) {
  auto log = SmallLog();
  std::vector<Arc> pairs{{0, 1}, {1, 0}, {0, 2}, {2, 1}, {1, 2}};
  // h = 2: user1 followed user0 on action 0 (t=0 -> 2, diff 2 <= 2) and
  // action 1 (10 -> 11, diff 1). user2 followed user0? 0 -> 5: diff 5 > 2.
  // user2 followed... user1 on action0: 2 -> 5 diff 3 > 2.
  auto b2 = ComputeFollowCounts(log, pairs, 2);
  EXPECT_EQ(b2, (std::vector<uint64_t>{2, 0, 0, 0, 0}));
  // h = 5: (0,2) diff 5 now counts; (1,2) diff 3 counts.
  auto b5 = ComputeFollowCounts(log, pairs, 5);
  EXPECT_EQ(b5, (std::vector<uint64_t>{2, 0, 1, 0, 1}));
}

TEST(CountersTest, FollowIsStrictlyAfter) {
  // Simultaneous adoption is not influence (Delta t > 0 per Def. 3.1).
  ActionLog log;
  log.Add({0, 0, 5});
  log.Add({1, 0, 5});
  auto b = ComputeFollowCounts(log, {{0, 1}}, 10);
  EXPECT_EQ(b[0], 0u);
}

TEST(CountersTest, ExactDelayCountsDecomposeFollowCounts) {
  // Property: b^h = sum_l c^l for every pair and window.
  Rng rng(42);
  auto graph = ErdosRenyiArcs(&rng, 30, 150).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.4);
  CascadeParams params;
  params.num_actions = 50;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  for (uint64_t h : {1u, 3u, 6u}) {
    auto b = ComputeFollowCounts(log, graph.arcs(), h);
    auto c = ComputeExactDelayCounts(log, graph.arcs(), h);
    for (size_t p = 0; p < graph.arcs().size(); ++p) {
      uint64_t sum = 0;
      for (uint64_t l = 0; l < h; ++l) sum += c[p][l];
      ASSERT_EQ(sum, b[p]) << "pair " << p << " h " << h;
    }
  }
}

TEST(CountersTest, FollowCountsMonotoneInWindow) {
  Rng rng(43);
  auto graph = ErdosRenyiArcs(&rng, 25, 100).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.5);
  CascadeParams params;
  params.num_actions = 40;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  auto b1 = ComputeFollowCounts(log, graph.arcs(), 1);
  auto b4 = ComputeFollowCounts(log, graph.arcs(), 4);
  auto b9 = ComputeFollowCounts(log, graph.arcs(), 9);
  for (size_t p = 0; p < graph.arcs().size(); ++p) {
    EXPECT_LE(b1[p], b4[p]);
    EXPECT_LE(b4[p], b9[p]);
  }
}

TEST(CountersTest, TemporalWeightsSumToH) {
  for (uint64_t h : {1u, 4u, 10u}) {
    for (auto tw : {TemporalWeights::Uniform(h), TemporalWeights::LinearDecay(h),
                    TemporalWeights::ExponentialDecay(h, 0.7)}) {
      double sum = 0.0;
      for (double w : tw.w) {
        EXPECT_GT(w, 0.0);  // Paper constraint: 0 < w_l.
        sum += w;
      }
      EXPECT_NEAR(sum, static_cast<double>(h), 1e-9);
    }
  }
}

TEST(CountersTest, DecayWeightsAreDecreasing) {
  auto lin = TemporalWeights::LinearDecay(5);
  auto exp = TemporalWeights::ExponentialDecay(5, 1.0);
  for (size_t l = 1; l < 5; ++l) {
    EXPECT_GT(lin.w[l - 1], lin.w[l]);
    EXPECT_GT(exp.w[l - 1], exp.w[l]);
  }
}

TEST(CountersTest, UniformWeightsReduceEq2ToEq1) {
  Rng rng(44);
  auto graph = ErdosRenyiArcs(&rng, 20, 80).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.5);
  CascadeParams params;
  params.num_actions = 30;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  uint64_t h = 4;
  auto b = ComputeFollowCounts(log, graph.arcs(), h);
  auto weighted = ComputeWeightedFollowCounts(log, graph.arcs(),
                                              TemporalWeights::Uniform(h));
  for (size_t p = 0; p < b.size(); ++p) {
    EXPECT_DOUBLE_EQ(weighted[p], static_cast<double>(b[p]));
  }
}

TEST(CountersTest, ScaledWeightsRounding) {
  auto tw = TemporalWeights::LinearDecay(3);
  auto scaled = tw.Scaled(1000);
  ASSERT_EQ(scaled.size(), 3u);
  for (size_t l = 0; l < 3; ++l) {
    EXPECT_NEAR(static_cast<double>(scaled[l]), tw.w[l] * 1000.0, 0.51);
  }
}

TEST(CountersTest, EmptyPairListIsFine) {
  auto b = ComputeFollowCounts(SmallLog(), {}, 4);
  EXPECT_TRUE(b.empty());
}

// Brute-force c^l_ij straight from records(): for every record of i, scan
// every record of j for the same action.
std::vector<std::vector<uint64_t>> ReferenceExactDelayCounts(
    const ActionLog& log, const std::vector<Arc>& pairs, uint64_t h) {
  std::vector<std::vector<uint64_t>> c(pairs.size(), std::vector<uint64_t>(h, 0));
  for (size_t p = 0; p < pairs.size(); ++p) {
    for (const auto& ri : log.records()) {
      if (ri.user != pairs[p].from) continue;
      for (const auto& rj : log.records()) {
        if (rj.user != pairs[p].to || rj.action != ri.action) continue;
        if (rj.time > ri.time && rj.time - ri.time <= h) {
          ++c[p][rj.time - ri.time - 1];
        }
      }
    }
  }
  return c;
}

// A random log over users [0, 12) in which users 3 and 7 never act, built
// from both Add and Merge, with repeated (user, action) pairs whose later
// copy carries an earlier time.
ActionLog RandomLog(Rng* rng) {
  ActionLog log, other;
  for (int k = 0; k < 150; ++k) {
    NodeId user = static_cast<NodeId>(rng->UniformU64(12));
    if (user == 3 || user == 7) continue;
    ActionRecord rec{user, static_cast<ActionId>(rng->UniformU64(15)),
                     rng->UniformU64(30)};
    (k % 3 == 0 ? other : log).Add(rec);
    if (rng->UniformU64(4) == 0 && rec.time > 0) {
      rec.time -= 1 + rng->UniformU64(rec.time);
      log.Add(rec);
    }
  }
  log.Merge(other);
  return log;
}

// Pairs over [0, 15): endpoints beyond the largest user id, users with no
// actions, and self-pairs i == j all occur.
std::vector<Arc> RandomPairs(Rng* rng) {
  std::vector<Arc> pairs;
  for (NodeId i = 0; i < 15; ++i) pairs.push_back({i, i});
  for (int k = 0; k < 300; ++k) {
    pairs.push_back({static_cast<NodeId>(rng->UniformU64(15)),
                     static_cast<NodeId>(rng->UniformU64(15))});
  }
  return pairs;
}

TEST(CountersTest, MatchBruteForceAtEveryPoolSize) {
  const size_t saved_threads = ThreadPool::Global().num_threads();
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const ActionLog log = RandomLog(&rng);
    const std::vector<Arc> pairs = RandomPairs(&rng);
    const size_t num_users = 15;
    std::vector<uint64_t> expected_a(num_users, 0);
    for (const auto& r : log.records()) ++expected_a[r.user];
    for (size_t threads : {1u, 2u, 8u}) {
      ThreadPool::Global().SetNumThreads(threads);
      ASSERT_EQ(ComputeActionCounts(log, num_users), expected_a);
      for (uint64_t h : {1u, 4u, 9u}) {
        const auto expected_c = ReferenceExactDelayCounts(log, pairs, h);
        std::vector<uint64_t> expected_b(pairs.size(), 0);
        for (size_t p = 0; p < pairs.size(); ++p) {
          for (uint64_t x : expected_c[p]) expected_b[p] += x;
        }
        ASSERT_EQ(ComputeExactDelayCounts(log, pairs, h), expected_c)
            << "trial " << trial << " threads " << threads << " h " << h;
        ASSERT_EQ(ComputeFollowCounts(log, pairs, h), expected_b)
            << "trial " << trial << " threads " << threads << " h " << h;
      }
    }
  }
  ThreadPool::Global().SetNumThreads(saved_threads);
}

TEST(CountersTest, CountsReflectLaterAddAndMerge) {
  // The counters keep no cache across calls: a count taken after further
  // Add/Merge calls on the same log sees the new records.
  ActionLog log;
  log.Add({1, 1, 10});
  log.Add({2, 1, 12});
  const std::vector<Arc> pairs{{1, 2}, {2, 1}, {1, 42}};
  EXPECT_EQ(ComputeFollowCounts(log, pairs, 3), (std::vector<uint64_t>{1, 0, 0}));
  log.Add({1, 2, 20});
  log.Add({2, 2, 21});
  EXPECT_EQ(ComputeFollowCounts(log, pairs, 3), (std::vector<uint64_t>{2, 0, 0}));
  log.Add({1, 1, 5});  // Earlier duplicate: delay on action 1 grows to 7.
  EXPECT_EQ(ComputeFollowCounts(log, pairs, 3), (std::vector<uint64_t>{1, 0, 0}));
  ActionLog later;
  later.Add({42, 2, 22});
  later.Add({2, 2, 19});  // Earlier copy: user 2 now acts before user 1.
  log.Merge(later);
  EXPECT_EQ(ComputeFollowCounts(log, pairs, 3), (std::vector<uint64_t>{0, 1, 1}));
  const std::vector<std::vector<uint64_t>> delays{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  EXPECT_EQ(ComputeExactDelayCounts(log, pairs, 3), delays);
  EXPECT_EQ(ComputeActionCounts(log, 3), (std::vector<uint64_t>{0, 2, 2}));
}

// Raw records over users [0, 18) — past the n = 15 the counters cover — with
// repeated (user, action) pairs whose later copy carries an earlier time, in
// the order a packed log would hold them (no ActionLog dedup applied).
std::vector<ActionRecord> RandomRawRecords(Rng* rng, size_t count) {
  std::vector<ActionRecord> raw;
  for (size_t k = 0; k < count; ++k) {
    ActionRecord rec{static_cast<NodeId>(rng->UniformU64(18)),
                     static_cast<ActionId>(rng->UniformU64(15)),
                     rng->UniformU64(30)};
    raw.push_back(rec);
    if (rng->UniformU64(4) == 0 && rec.time > 0) {
      rec.time -= 1 + rng->UniformU64(rec.time);
      raw.push_back(rec);
    }
  }
  return raw;
}

// The P4 counter vector from a packed-records blob must equal the ActionLog
// path's element for element: the blob path dedups (user, action) itself.
TEST(CountersTest, PackedRowsMatchActionLogPath) {
  Rng rng(1605);
  const size_t num_users = 15;
  Protocol4Config eq1;
  Protocol4Config eq2;
  eq2.h = 4;
  eq2.weights = TemporalWeights::LinearDecay(4);
  eq2.weight_scale = 1u << 16;
  for (size_t trial = 0; trial < 30; ++trial) {
    // Trial 0 is the empty log.
    const std::vector<ActionRecord> raw =
        RandomRawRecords(&rng, trial == 0 ? 0 : 40 * trial);
    ActionLog log;
    for (const ActionRecord& r : raw) log.Add(r);
    const std::vector<Arc> pairs = RandomPairs(&rng);
    const size_t rows_needed = CounterRows(num_users, pairs);
    const std::vector<uint8_t> packed = PackRecords(raw);
    const UserRows from_blob(PackedRecords::Open(packed).ValueOrDie(),
                             rows_needed);
    const UserRows from_raw(raw, rows_needed);
    ASSERT_EQ(ComputeActionCounts(from_blob, num_users),
              ComputeActionCounts(log, num_users))
        << "trial " << trial;
    for (const Protocol4Config* cfg : {&eq1, &eq2}) {
      const auto expected =
          ComputeProviderCounterVector(log, num_users, pairs, *cfg).ValueOrDie();
      ASSERT_EQ(expected.size(), num_users + pairs.size());
      ASSERT_EQ(ComputeProviderCounterVector(from_blob, num_users, pairs, *cfg)
                    .ValueOrDie(),
                expected)
          << "trial " << trial << (cfg == &eq2 ? " Eq. 2" : " Eq. 1");
      ASSERT_EQ(ComputeProviderCounterVector(from_raw, num_users, pairs, *cfg)
                    .ValueOrDie(),
                expected)
          << "trial " << trial;
    }
    // The kernel's own inputs agree too, against the brute force.
    ASSERT_EQ(ComputeExactDelayCounts(from_blob, pairs, 4),
              ReferenceExactDelayCounts(log, pairs, 4))
        << "trial " << trial;
  }
}

TEST(CountersTest, PackedRecordsRejectMalformedBuffers) {
  const std::vector<uint8_t> packed = PackRecords({{0, 1, 2}, {3, 4, 5}});
  std::vector<uint8_t> trailing = packed;
  trailing.push_back(0);
  std::vector<uint8_t> truncated(packed.begin(), packed.end() - 1);
  std::vector<uint8_t> oversized = packed;
  oversized[0] = 3;  // Claims a third record.
  for (const auto& bad : {trailing, truncated, oversized,
                          std::vector<uint8_t>{}}) {
    auto view = PackedRecords::Open(bad);
    ASSERT_FALSE(view.ok());
    EXPECT_EQ(view.status().code(), StatusCode::kSerializationError);
    std::vector<ActionRecord> records;
    EXPECT_EQ(UnpackRecords(bad, &records).code(),
              StatusCode::kSerializationError);
  }
}

TEST(CountersTest, CounterVectorRejectsRowsTooShortForThePairs) {
  const UserRows rows(SmallLog().records(), /*max_rows=*/3);
  auto counters = ComputeProviderCounterVector(rows, 3, {{0, 5}},
                                               Protocol4Config{});
  ASSERT_FALSE(counters.ok());
  EXPECT_EQ(counters.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace psi
