#include "partition/plan.h"

#include <gtest/gtest.h>

#include "partition/text_util.h"
#include "test_util.h"

namespace ps2 {
namespace {

TEST(TermRouterTest, ExplicitMapping) {
  TermRouter router({{1, 0}, {2, 1}, {3, 2}}, {0, 1, 2});
  EXPECT_EQ(router.Route(1), 0);
  EXPECT_EQ(router.Route(2), 1);
  EXPECT_EQ(router.Route(3), 2);
}

TEST(TermRouterTest, FallbackIsDeterministicAndInWorkerSet) {
  TermRouter router({{1, 0}}, {0, 1, 2});
  const WorkerId w = router.Route(999);
  EXPECT_EQ(w, router.Route(999));
  EXPECT_GE(w, 0);
  EXPECT_LE(w, 2);
}

TEST(TermRouterTest, EmptyWorkerListDerivedFromMap) {
  TermRouter router({{5, 3}}, {});
  EXPECT_EQ(router.Route(5), 3);
  EXPECT_EQ(router.Route(6), 3);  // only worker available
}

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : grid_(Rect(0, 0, 100, 100), 3) {}

  // Plan: left half space-routed to worker 0/1 by row parity; right half
  // text-routed over workers {2, 3}.
  PartitionPlan MakeMixedPlan() {
    PartitionPlan plan;
    plan.grid = grid_;
    plan.num_workers = 4;
    plan.cells.resize(grid_.NumCells());
    std::unordered_map<TermId, WorkerId> map;
    map[ta_] = 2;
    map[tb_] = 3;
    auto router = std::make_shared<const TermRouter>(
        std::move(map), std::vector<WorkerId>{2, 3});
    for (uint32_t cy = 0; cy < grid_.side(); ++cy) {
      for (uint32_t cx = 0; cx < grid_.side(); ++cx) {
        CellRoute& r = plan.cells[grid_.ToId(cx, cy)];
        if (cx < grid_.side() / 2) {
          r.worker = cy % 2;
        } else {
          r.text = router;
        }
      }
    }
    return plan;
  }

  GridSpec grid_;
  Vocabulary vocab_;
  TermId ta_ = vocab_.Intern("a");
  TermId tb_ = vocab_.Intern("b");
};

TEST_F(PlanTest, RouteObjectSpaceCell) {
  const PartitionPlan plan = MakeMixedPlan();
  const auto o = SpatioTextualObject::FromTerms(1, Point{10, 10}, {ta_, tb_});
  std::vector<WorkerId> out;
  plan.RouteObject(o, &out);
  ASSERT_EQ(out.size(), 1u);  // space cells route regardless of text
  EXPECT_LE(out[0], 1);
}

TEST_F(PlanTest, RouteObjectTextCellFansOutPerTerm) {
  const PartitionPlan plan = MakeMixedPlan();
  const auto o = SpatioTextualObject::FromTerms(1, Point{90, 10}, {ta_, tb_});
  std::vector<WorkerId> out;
  plan.RouteObject(o, &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{2, 3}));
  // Single-term object goes to a single worker.
  const auto o2 = SpatioTextualObject::FromTerms(2, Point{90, 10}, {ta_});
  plan.RouteObject(o2, &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{2}));
}

TEST_F(PlanTest, RouteQuerySpansBothHalves) {
  const PartitionPlan plan = MakeMixedPlan();
  STSQuery q;
  q.id = 1;
  q.expr = BoolExpr::And({ta_});
  q.region = Rect(40, 40, 60, 60);  // straddles the halves
  std::vector<PartitionPlan::QueryRoute> routes;
  plan.RouteQuery(q, &routes);
  // Reaches at least one space worker and worker 2 (term a).
  bool has_space = false, has_text = false;
  for (const auto& r : routes) {
    EXPECT_FALSE(r.cells.empty());
    if (r.worker <= 1) has_space = true;
    if (r.worker == 2) has_text = true;
    EXPECT_NE(r.worker, 3);  // term b is not in the query
  }
  EXPECT_TRUE(has_space);
  EXPECT_TRUE(has_text);
}

TEST_F(PlanTest, RouteQueryCellsOverlapRegion) {
  const PartitionPlan plan = MakeMixedPlan();
  STSQuery q;
  q.id = 1;
  q.expr = BoolExpr::And({ta_});
  q.region = Rect(10, 10, 30, 30);
  std::vector<PartitionPlan::QueryRoute> routes;
  plan.RouteQuery(q, &routes);
  for (const auto& r : routes) {
    for (const CellId c : r.cells) {
      EXPECT_TRUE(plan.grid.CellRect(c).Intersects(q.region));
    }
  }
}

TEST_F(PlanTest, MemoryCountsSharedRouterOnce) {
  const PartitionPlan plan = MakeMixedPlan();
  PartitionPlan single;
  single.grid = grid_;
  single.num_workers = 4;
  single.cells.resize(grid_.NumCells());
  single.cells[0] = plan.cells[grid_.NumCells() - 1];  // one text cell
  // The mixed plan shares one router across many cells: its footprint must
  // be far below #cells * router size.
  EXPECT_LT(plan.MemoryBytes(),
            single.MemoryBytes() + grid_.NumCells() * sizeof(CellRoute) +
                1024);
}

TEST_F(PlanTest, NumTextCells) {
  const PartitionPlan plan = MakeMixedPlan();
  EXPECT_EQ(plan.NumTextCells(), grid_.NumCells() / 2);
}

TEST(PlanLoadTest, EstimateCountsDuplication) {
  // Whole-space text plan over 2 workers: an object with terms on both
  // workers is tallied twice.
  Vocabulary vocab;
  const TermId a = vocab.Intern("a");
  const TermId b = vocab.Intern("b");
  const GridSpec grid(Rect(0, 0, 10, 10), 2);
  PartitionPlan plan =
      MakeWholeSpaceTextPlan(grid, 2, {{a, 0}, {b, 1}});

  WorkloadSample sample;
  sample.objects.push_back(
      SpatioTextualObject::FromTerms(1, Point{5, 5}, {a, b}));
  sample.objects.push_back(
      SpatioTextualObject::FromTerms(2, Point{5, 5}, {a}));
  STSQuery q;
  q.id = 1;
  q.expr = BoolExpr::And({a});
  q.region = Rect(0, 0, 10, 10);
  sample.inserts.push_back(q);

  const auto report = EstimatePlanLoad(plan, sample, CostModel{});
  EXPECT_EQ(report.tallies[0].objects, 2u);  // both objects carry term a
  EXPECT_EQ(report.tallies[1].objects, 1u);  // only object 1 carries b
  EXPECT_EQ(report.tallies[0].inserts, 1u);
  EXPECT_EQ(report.tallies[1].inserts, 0u);
  EXPECT_GT(report.total_load, 0.0);
}

TEST(PartitionerRegistryTest, KnownNames) {
  for (const char* name : {"frequency", "hypergraph", "metric", "grid",
                           "kdtree", "rtree", "hybrid"}) {
    auto p = MakePartitioner(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->Name(), name);
  }
  EXPECT_EQ(MakePartitioner("nope"), nullptr);
}

}  // namespace
}  // namespace ps2
