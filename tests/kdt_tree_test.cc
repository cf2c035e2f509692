#include "dispatch/kdt_tree.h"

#include <gtest/gtest.h>

#include "partition/plan.h"
#include "test_util.h"

namespace ps2 {
namespace {

// Equivalence property: for any plan produced by any partitioner, the
// kdt-tree router and the flat gridt plan route identically.
class KdtEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KdtEquivalenceTest, ObjectRoutingMatchesPlan) {
  auto w = testutil::MakeWorkload(101, 1000, 300);
  PartitionConfig cfg;
  cfg.num_workers = 6;
  cfg.grid_k = 4;
  const PartitionPlan plan =
      MakePartitioner(GetParam())->Build(w.sample, w.vocab, cfg);
  const KdtTree tree(plan);
  std::vector<WorkerId> via_plan, via_tree;
  for (const auto& o : w.extra_objects) {
    plan.RouteObject(o, &via_plan);
    tree.RouteObject(o, &via_tree);
    ASSERT_EQ(via_plan, via_tree) << GetParam();
  }
}

TEST_P(KdtEquivalenceTest, QueryRoutingMatchesPlan) {
  auto w = testutil::MakeWorkload(103, 800, 300);
  PartitionConfig cfg;
  cfg.num_workers = 6;
  cfg.grid_k = 4;
  const PartitionPlan plan =
      MakePartitioner(GetParam())->Build(w.sample, w.vocab, cfg);
  const KdtTree tree(plan);
  std::vector<PartitionPlan::QueryRoute> via_plan, via_tree;
  for (const auto& q : w.sample.inserts) {
    plan.RouteQuery(q, &via_plan);
    tree.RouteQuery(q, &via_tree);
    ASSERT_EQ(via_plan.size(), via_tree.size()) << GetParam();
    for (size_t i = 0; i < via_plan.size(); ++i) {
      EXPECT_EQ(via_plan[i].worker, via_tree[i].worker);
      EXPECT_EQ(via_plan[i].cells, via_tree[i].cells);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPartitioners, KdtEquivalenceTest,
                         ::testing::Values("frequency", "metric", "grid",
                                           "kdtree", "rtree", "hybrid"));

TEST(KdtTreeTest, UniformPlanIsOneLeaf) {
  PartitionPlan plan;
  plan.grid = GridSpec(Rect(0, 0, 10, 10), 4);
  plan.num_workers = 1;
  plan.cells.assign(plan.grid.NumCells(), CellRoute{0, nullptr});
  const KdtTree tree(plan);
  EXPECT_EQ(tree.NumLeaves(), 1u);
  EXPECT_EQ(tree.Depth(), 1);
}

TEST(KdtTreeTest, CheckerboardNeedsManyLeaves) {
  PartitionPlan plan;
  plan.grid = GridSpec(Rect(0, 0, 8, 8), 3);
  plan.num_workers = 2;
  plan.cells.resize(plan.grid.NumCells());
  for (uint32_t cy = 0; cy < 8; ++cy) {
    for (uint32_t cx = 0; cx < 8; ++cx) {
      plan.cells[plan.grid.ToId(cx, cy)].worker = (cx + cy) % 2;
    }
  }
  const KdtTree tree(plan);
  EXPECT_EQ(tree.NumLeaves(), 64u);  // no uniform block larger than a cell
  EXPECT_GE(tree.Depth(), 6);
}

TEST(KdtTreeTest, HalfPlaneIsCompact) {
  PartitionPlan plan;
  plan.grid = GridSpec(Rect(0, 0, 8, 8), 3);
  plan.num_workers = 2;
  plan.cells.resize(plan.grid.NumCells());
  for (uint32_t cy = 0; cy < 8; ++cy) {
    for (uint32_t cx = 0; cx < 8; ++cx) {
      plan.cells[plan.grid.ToId(cx, cy)].worker = cx < 4 ? 0 : 1;
    }
  }
  const KdtTree tree(plan);
  EXPECT_EQ(tree.NumLeaves(), 2u);
}

}  // namespace
}  // namespace ps2
