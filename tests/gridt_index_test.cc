#include "dispatch/gridt_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "partition/text_util.h"
#include "test_util.h"

namespace ps2 {
namespace {

class GridtIndexTest : public ::testing::Test {
 protected:
  GridtIndexTest() : grid_(Rect(0, 0, 16, 16), 3) {
    a_ = vocab_.Intern("a");
    b_ = vocab_.Intern("b");
    vocab_.AddCount(a_, 5);
    vocab_.AddCount(b_, 3);
  }

  // All cells space-routed: left half -> 0, right half -> 1.
  PartitionPlan SpacePlan() {
    PartitionPlan plan;
    plan.grid = grid_;
    plan.num_workers = 2;
    plan.cells.resize(grid_.NumCells());
    for (uint32_t cy = 0; cy < grid_.side(); ++cy) {
      for (uint32_t cx = 0; cx < grid_.side(); ++cx) {
        plan.cells[grid_.ToId(cx, cy)].worker = cx < grid_.side() / 2 ? 0 : 1;
      }
    }
    return plan;
  }

  // An admitted query: its routing clause is chosen against vocab_.
  STSQuery Query(QueryId id, std::vector<TermId> terms, Rect region) {
    STSQuery q;
    q.id = id;
    q.expr = BoolExpr::And(std::move(terms));
    q.expr.ChooseRouting(vocab_);
    q.region = region;
    return q;
  }

  SpatioTextualObject Object(ObjectId id, Point loc,
                             std::vector<TermId> terms) {
    return SpatioTextualObject::FromTerms(id, loc, std::move(terms));
  }

  GridSpec grid_;
  Vocabulary vocab_;
  TermId a_, b_;
};

TEST_F(GridtIndexTest, SpaceCellsForwardObjectsUnconditionally) {
  // Figure 4: space-routed cells send objects "without checking the
  // textual content" — even when no query is registered.
  GridtIndex index(SpacePlan(), &vocab_);
  std::vector<WorkerId> out;
  index.RouteObject(Object(1, Point{2, 2}, {a_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{0}));
  index.RouteObject(Object(2, Point{14, 2}, {b_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{1}));
  // H1 routing agrees.
  index.RouteObjectH1(Object(1, Point{2, 2}, {a_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{0}));
}

TEST_F(GridtIndexTest, TextCellObjectDiscardWithoutLiveKeys) {
  PartitionPlan plan = MakeWholeSpaceTextPlan(grid_, 2, {{a_, 0}, {b_, 1}});
  GridtIndex index(std::move(plan), &vocab_);
  std::vector<WorkerId> out;
  // No live queries: every object is discarded at the dispatcher.
  index.RouteObject(Object(1, Point{2, 2}, {a_}), &out);
  EXPECT_TRUE(out.empty());
  // After registering a query keyed on a, objects carrying a get through.
  index.RouteInsert(Query(1, {a_}, Rect(0, 0, 4, 4)));
  index.RouteObject(Object(2, Point{2, 2}, {a_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{0}));
  // Object with only non-key terms is still discarded.
  index.RouteObject(Object(3, Point{2, 2}, {b_}), &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(GridtIndexTest, H2RefcountsSurviveOneOfTwoDeletes) {
  PartitionPlan plan = MakeWholeSpaceTextPlan(grid_, 2, {{a_, 0}, {b_, 1}});
  GridtIndex index(std::move(plan), &vocab_);
  const STSQuery q1 = Query(1, {a_}, Rect(0, 0, 4, 4));
  const STSQuery q2 = Query(2, {a_}, Rect(0, 0, 4, 4));
  index.RouteInsert(q1);
  index.RouteInsert(q2);
  index.RouteDelete(q1);
  std::vector<WorkerId> out;
  index.RouteObject(Object(1, Point{2, 2}, {a_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{0}));  // q2 still live
  index.RouteDelete(q2);
  index.RouteObject(Object(2, Point{2, 2}, {a_}), &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(GridtIndexTest, TextPlanRoutesQueriesByRoutingTerms) {
  PartitionPlan plan =
      MakeWholeSpaceTextPlan(grid_, 2, {{a_, 0}, {b_, 1}});
  GridtIndex index(std::move(plan), &vocab_);
  // AND query routes by least frequent keyword only (b).
  const auto routes = index.RouteInsert(Query(1, {a_, b_}, Rect(0, 0, 4, 4)));
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].worker, 1);
  // Object with only term a: does not carry the routing key -> discarded
  // (it cannot match "a AND b" anyway since it lacks b).
  std::vector<WorkerId> out;
  index.RouteObject(Object(1, Point{2, 2}, {a_}), &out);
  EXPECT_TRUE(out.empty());
  // Object with both terms reaches worker 1 via key b.
  index.RouteObject(Object(2, Point{2, 2}, {a_, b_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{1}));
}

// The router's worker list doubles as the hash-fallback table for terms
// absent from its map, so remapping a worker's share must keep positions:
// a query indexed through the fallback at `from` (now held by `to`) must
// have its delete routed to `to`, and one at another worker must stay put.
TEST_F(GridtIndexTest, RemapCellWorkerKeepsHashFallbackPositions) {
  PartitionPlan plan = SpacePlan();
  plan.num_workers = 6;
  GridtIndex index(std::move(plan));
  const CellId cell = grid_.CellOf(Point{1, 1});
  index.SetCellTextRoute(cell, {}, {2, 1});
  const Rect region(0.5, 0.5, 1.5, 1.5);
  std::vector<STSQuery> queries;
  std::vector<WorkerId> holder;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(
        Query(10 + i, {vocab_.Intern("p" + std::to_string(i))}, region));
    const auto routes = index.RouteInsert(queries.back());
    ASSERT_EQ(routes.size(), 1u);
    holder.push_back(routes[0].worker);
  }
  ASSERT_NE(std::count(holder.begin(), holder.end(), 2), 0);
  ASSERT_NE(std::count(holder.begin(), holder.end(), 1), 0);
  // Worker 2's share of the cell migrates to worker 5.
  index.RemapCellWorker(cell, 2, 5);
  for (size_t i = 0; i < queries.size(); ++i) {
    const WorkerId now = holder[i] == 2 ? 5 : holder[i];
    const TermId t = queries[i].expr.RoutingTerms().front();
    std::vector<WorkerId> out;
    index.RouteObject(Object(100 + i, Point{1, 1}, {t}), &out);
    EXPECT_EQ(out, (std::vector<WorkerId>{now})) << "query " << i;
    const auto routes = index.RouteDelete(queries[i]);
    ASSERT_EQ(routes.size(), 1u);
    EXPECT_EQ(routes[0].worker, now) << "query " << i;
  }
  EXPECT_EQ(index.NumH2Entries(), 0u);
}

TEST_F(GridtIndexTest, ReassignCellRedirectsObjects) {
  GridtIndex index(SpacePlan(), &vocab_);
  index.RouteInsert(Query(1, {a_}, Rect(0, 0, 2, 2)));
  const CellId cell = grid_.CellOf(Point{1, 1});
  index.ReassignCell(cell, 1);
  std::vector<WorkerId> out;
  index.RouteObject(Object(1, Point{1, 1}, {a_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{1}));
  // Deletions after the move route to the new worker too.
  const auto del = index.RouteDelete(Query(1, {a_}, Rect(0, 0, 2, 2)));
  bool hits_new = false;
  for (const auto& r : del) hits_new |= r.worker == 1;
  EXPECT_TRUE(hits_new);
}

TEST_F(GridtIndexTest, SetCellTextRouteSplitsTraffic) {
  GridtIndex index(SpacePlan(), &vocab_);
  index.RouteInsert(Query(1, {a_}, Rect(0, 0, 2, 2)));
  index.RouteInsert(Query(2, {b_}, Rect(0, 0, 2, 2)));
  const CellId cell = grid_.CellOf(Point{1, 1});
  index.SetCellTextRoute(cell, {{a_, 0}, {b_, 1}}, {0, 1});
  // H2 is rebuilt by the migration layer (Cluster::TextSplitCell); mimic it.
  index.AddH2(cell, a_, 0);
  index.AddH2(cell, b_, 1);
  std::vector<WorkerId> out;
  index.RouteObject(Object(1, Point{1, 1}, {a_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{0}));
  index.RouteObject(Object(2, Point{1, 1}, {b_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{1}));
  index.RouteObject(Object(3, Point{1, 1}, {a_, b_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{0, 1}));
}

TEST_F(GridtIndexTest, RemapCellWorkerOnTextCell) {
  PartitionPlan plan =
      MakeWholeSpaceTextPlan(grid_, 3, {{a_, 0}, {b_, 1}});
  GridtIndex index(std::move(plan), &vocab_);
  index.RouteInsert(Query(1, {a_}, Rect(0, 0, 2, 2)));
  const CellId cell = grid_.CellOf(Point{1, 1});
  index.RemapCellWorker(cell, /*from=*/0, /*to=*/2);
  std::vector<WorkerId> out;
  index.RouteObject(Object(1, Point{1, 1}, {a_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{2}));
  // Other cells keep the original routing (router clone is cell-local).
  index.RouteInsert(Query(2, {a_}, Rect(10, 10, 12, 12)));
  index.RouteObject(Object(2, Point{11, 11}, {a_}), &out);
  EXPECT_EQ(out, (std::vector<WorkerId>{0}));
}

TEST_F(GridtIndexTest, H2WorkersIntrospection) {
  PartitionPlan plan = MakeWholeSpaceTextPlan(grid_, 2, {{a_, 0}, {b_, 1}});
  GridtIndex index(std::move(plan), &vocab_);
  index.RouteInsert(Query(1, {a_}, Rect(0, 0, 2, 2)));
  const CellId cell = grid_.CellOf(Point{1, 1});
  EXPECT_EQ(index.H2Workers(cell, a_), (std::vector<WorkerId>{0}));
  EXPECT_TRUE(index.H2Workers(cell, b_).empty());
}

TEST_F(GridtIndexTest, MemoryGrowsWithH2) {
  std::unordered_map<TermId, WorkerId> map{{a_, 0}, {b_, 1}};
  GridtIndex index(MakeWholeSpaceTextPlan(grid_, 2, std::move(map)),
                   &vocab_);
  const size_t before = index.MemoryBytes();
  for (int i = 0; i < 200; ++i) {
    const TermId t = vocab_.Intern("w" + std::to_string(i));
    index.RouteInsert(Query(100 + i, {t}, Rect(0, 0, 15, 15)));
  }
  EXPECT_GT(index.MemoryBytes(), before);
  EXPECT_GT(index.NumH2Entries(), 200u);
}

}  // namespace
}  // namespace ps2
