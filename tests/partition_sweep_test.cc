// Parameterized sweeps over worker counts and grid granularities: routing
// completeness must hold for every (partitioner, m, k) combination — the
// broad-coverage counterpart to the focused property tests.
#include <gtest/gtest.h>

#include "partition/plan.h"
#include "runtime/engine.h"
#include "test_util.h"

namespace ps2 {
namespace {

using SweepParam = std::tuple<std::string, int, int>;  // name, workers, k

class PartitionSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PartitionSweepTest, RoutingCompletenessAcrossConfigs) {
  const auto [name, workers, grid_k] = GetParam();
  auto w = testutil::MakeWorkload(1000 + workers * 10 + grid_k, 500, 150);
  PartitionConfig cfg;
  cfg.num_workers = workers;
  cfg.grid_k = grid_k;
  const PartitionPlan plan =
      MakePartitioner(name)->Build(w.sample, w.vocab, cfg);
  Cluster cluster(plan, &w.vocab);
  ReferenceMatcher ref;
  for (const auto& q : w.sample.inserts) {
    cluster.Process(StreamTuple::OfInsert(q));
    ref.Insert(q);
  }
  for (const auto& o : w.extra_objects) {
    std::vector<MatchResult> got;
    cluster.Process(StreamTuple::OfObject(o), &got);
    ASSERT_EQ(testutil::Sorted(got), testutil::Sorted(ref.Match(o)))
        << name << " m=" << workers << " k=" << grid_k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PartitionSweepTest,
    ::testing::Combine(::testing::Values("frequency", "metric", "grid",
                                         "kdtree", "rtree", "hybrid"),
                       ::testing::Values(2, 5, 12),
                       ::testing::Values(2, 5)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::get<0>(info.param) + "_m" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// Plan estimate sanity across the same matrix: total load must grow when
// workers shrink duplication opportunities away (m=1 lower bound) and the
// balance must be >= 1.
class PlanEstimateSweepTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(PlanEstimateSweepTest, MoreWorkersNeverBeatSingleWorkerTotal) {
  auto w = testutil::MakeWorkload(2024, 1000, 300);
  PartitionConfig cfg;
  cfg.grid_k = 4;
  cfg.num_workers = 1;
  const double single =
      EstimatePlanLoad(
          MakePartitioner(GetParam())->Build(w.sample, w.vocab, cfg),
          w.sample, cfg.cost)
          .total_load;
  for (int m : {2, 4, 8}) {
    cfg.num_workers = m;
    const auto report = EstimatePlanLoad(
        MakePartitioner(GetParam())->Build(w.sample, w.vocab, cfg), w.sample,
        cfg.cost);
    EXPECT_GE(report.balance, 1.0);
    // Linear terms can only grow with duplication; the c1 product term
    // shrinks by splitting, so no strict global ordering exists — but the
    // plan must never "lose" work: every object and insert is routed at
    // least once.
    uint64_t objects = 0, inserts = 0;
    for (const auto& t : report.tallies) {
      objects += t.objects;
      inserts += t.inserts;
    }
    EXPECT_GE(objects + inserts, 1u);
    EXPECT_GE(objects, w.sample.objects.size() / 2);  // most objects routed
    EXPECT_GE(inserts, w.sample.inserts.size());      // every insert routed
  }
  EXPECT_GT(single, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPartitioners, PlanEstimateSweepTest,
                         ::testing::Values("frequency", "hypergraph",
                                           "metric", "grid", "kdtree",
                                           "rtree", "hybrid"));

}  // namespace
}  // namespace ps2
