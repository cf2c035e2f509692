#include "adjust/local_adjust.h"

#include <gtest/gtest.h>

#include "index/reference_matcher.h"
#include "test_util.h"

namespace ps2 {
namespace {

// Builds a deliberately imbalanced cluster: all cells assigned to worker 0,
// workers 1..3 idle. Queries and objects clustered in one corner.
struct Imbalanced {
  Vocabulary vocab;
  std::unique_ptr<Cluster> cluster;
  WorkloadSample window;
  ReferenceMatcher ref;
};

Imbalanced MakeImbalanced(uint64_t seed, int workers = 4) {
  Imbalanced s;
  auto w = testutil::MakeWorkload(seed, 1200, 300);
  s.vocab = w.vocab;
  PartitionPlan plan;
  plan.grid = GridSpec(w.sample.Bounds(), 4);
  plan.num_workers = workers;
  plan.cells.assign(plan.grid.NumCells(), CellRoute{0, nullptr});
  s.cluster = std::make_unique<Cluster>(plan, &s.vocab);
  for (const auto& q : w.sample.inserts) {
    s.cluster->Process(StreamTuple::OfInsert(q));
    s.ref.Insert(q);
  }
  for (const auto& o : w.sample.objects) {
    s.cluster->Process(StreamTuple::OfObject(o));
  }
  s.window = w.sample;
  return s;
}

TEST(LocalAdjustTest, NoTriggerWhenBalanced) {
  auto w = testutil::MakeWorkload(301, 500, 150);
  PartitionConfig cfg;
  cfg.num_workers = 4;
  cfg.grid_k = 4;
  const PartitionPlan plan =
      MakePartitioner("grid")->Build(w.sample, w.vocab, cfg);
  Cluster cluster(plan, &w.vocab);
  for (const auto& q : w.sample.inserts) {
    cluster.Process(StreamTuple::OfInsert(q));
  }
  for (const auto& o : w.sample.objects) {
    cluster.Process(StreamTuple::OfObject(o));
  }
  LocalAdjustConfig cfg2;
  cfg2.sigma = 1e9;  // effectively never violated
  LocalLoadAdjuster adjuster(cfg2);
  const auto report = adjuster.MaybeAdjust(cluster, w.sample);
  EXPECT_FALSE(report.triggered);
  EXPECT_EQ(report.bytes_migrated, 0u);
}

class LocalAdjustSelectorTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(LocalAdjustSelectorTest, ImprovesBalanceAndPreservesMatching) {
  Imbalanced s = MakeImbalanced(401);
  LocalAdjustConfig cfg;
  cfg.sigma = 1.5;
  cfg.selector = GetParam();
  LocalLoadAdjuster adjuster(cfg);
  const auto report = adjuster.MaybeAdjust(*s.cluster, s.window);
  EXPECT_TRUE(report.triggered);
  EXPECT_EQ(report.overloaded, 0);
  EXPECT_GT(report.queries_moved + report.phase1_splits +
                report.phase1_merges,
            0u);
  // Work actually moved off the hot worker.
  EXPECT_LT(s.cluster->worker(0).NumActiveQueries(), s.ref.size());
  // Matching correctness preserved after migration. Fresh object ids, one
  // per probe, as the cluster's duplicate filter assumes of every stream.
  auto w2 = testutil::MakeWorkload(402, 200, 0);
  ObjectId probe_id = 10'000'000;
  for (auto o : w2.sample.objects) {
    o.id = probe_id++;
    std::vector<MatchResult> got;
    s.cluster->Process(StreamTuple::OfObject(o), &got);
    ASSERT_EQ(testutil::Sorted(got), testutil::Sorted(s.ref.Match(o)))
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Selectors, LocalAdjustSelectorTest,
                         ::testing::Values("DP", "GR", "SI", "RA"));

TEST(LocalAdjustTest, RepeatedAdjustmentsConverge) {
  Imbalanced s = MakeImbalanced(403);
  LocalAdjustConfig cfg;
  cfg.sigma = 2.0;
  LocalLoadAdjuster adjuster(cfg);
  // Replay object load between adjustments so Definition-3 cell loads
  // reflect the new placement.
  double last_moved = 1e18;
  for (int round = 0; round < 6; ++round) {
    const auto report = adjuster.MaybeAdjust(*s.cluster, s.window);
    if (!report.triggered) break;
    s.cluster->ResetLoadWindow();
    for (const auto& o : s.window.objects) {
      s.cluster->Process(StreamTuple::OfObject(o));
    }
    last_moved = static_cast<double>(report.queries_moved);
  }
  // Eventually the hottest worker holds well under the full query set.
  size_t mx = 0, total = 0;
  for (int w = 0; w < s.cluster->num_workers(); ++w) {
    mx = std::max(mx, s.cluster->worker(w).NumActiveQueries());
    total += s.cluster->worker(w).NumActiveQueries();
  }
  EXPECT_LT(mx, total);  // no longer everything on one worker
}

TEST(LocalAdjustTest, CollectCellsMatchesGi2Stats) {
  Imbalanced s = MakeImbalanced(405);
  const auto cells = LocalLoadAdjuster::CollectCells(*s.cluster, 0);
  EXPECT_FALSE(cells.empty());
  for (const auto& c : cells) {
    EXPECT_GE(c.load, 0.0);
    EXPECT_GE(c.size, 0.0);
  }
}

TEST(LocalAdjustTest, MigrationReportConsistent) {
  Imbalanced s = MakeImbalanced(407);
  LocalAdjustConfig cfg;
  cfg.selector = "GR";
  LocalLoadAdjuster adjuster(cfg);
  const auto report = adjuster.MaybeAdjust(*s.cluster, s.window);
  ASSERT_TRUE(report.triggered);
  EXPECT_GE(report.migration_seconds, 0.0);
  if (report.bytes_migrated > 0) {
    EXPECT_GT(report.migration_seconds, 0.0);
  }
}

}  // namespace
}  // namespace ps2
