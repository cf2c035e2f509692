#include "runtime/engine.h"

#include <gtest/gtest.h>

#include "partition/plan.h"
#include "runtime/sim_engine.h"
#include "test_util.h"

namespace ps2 {
namespace {

// Builds a 2-worker cluster with a simple left/right space plan.
class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    a_ = vocab_.Intern("a");
    b_ = vocab_.Intern("b");
    vocab_.AddCount(a_, 3);
    vocab_.AddCount(b_, 2);
    grid_ = GridSpec(Rect(0, 0, 16, 16), 3);
    PartitionPlan plan;
    plan.grid = grid_;
    plan.num_workers = 2;
    plan.cells.resize(grid_.NumCells());
    for (uint32_t cy = 0; cy < grid_.side(); ++cy) {
      for (uint32_t cx = 0; cx < grid_.side(); ++cx) {
        plan.cells[grid_.ToId(cx, cy)].worker = cx < grid_.side() / 2 ? 0 : 1;
      }
    }
    cluster_ = std::make_unique<Cluster>(plan, &vocab_);
  }

  STSQuery Query(QueryId id, std::vector<TermId> terms, Rect region) {
    STSQuery q;
    q.id = id;
    q.expr = BoolExpr::And(std::move(terms));
    q.region = region;
    return q;
  }

  Vocabulary vocab_;
  GridSpec grid_;
  TermId a_, b_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterTest, EndToEndMatch) {
  cluster_->Process(StreamTuple::OfInsert(Query(1, {a_}, Rect(0, 0, 4, 4))));
  std::vector<MatchResult> delivered;
  cluster_->Process(StreamTuple::OfObject(SpatioTextualObject::FromTerms(
                        10, Point{2, 2}, {a_})),
                    &delivered);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].query_id, 1u);
}

TEST_F(ClusterTest, QuerySpanningWorkersMatchesOncePerObject) {
  Cluster sim_cluster(cluster_->router().plan(), &vocab_);
  // Region spans both halves; object near the seam matches once.
  cluster_->Process(StreamTuple::OfInsert(Query(1, {a_}, Rect(6, 6, 10, 10))));
  std::vector<MatchResult> delivered;
  cluster_->Process(StreamTuple::OfObject(SpatioTextualObject::FromTerms(
                        11, Point{7, 7}, {a_})),
                    &delivered);
  EXPECT_EQ(delivered.size(), 1u);

  // A text-split cell stores an `a OR b` query on both workers; an object
  // holding both terms reaches both workers and still matches once.
  const auto setup = [&](Cluster& c) {
    STSQuery q;
    q.id = 2;
    q.expr = BoolExpr::Or({a_, b_});
    q.region = Rect(0, 0, 2, 2);
    c.Process(StreamTuple::OfInsert(q));
    c.TextSplitCell(grid_.CellOf(Point{1, 1}), /*keep=*/0, /*to=*/1,
                    {{a_, 0}, {b_, 1}});
  };
  setup(*cluster_);
  const StreamTuple object = StreamTuple::OfObject(
      SpatioTextualObject::FromTerms(16, Point{1, 1}, {a_, b_}));
  delivered.clear();
  cluster_->Process(object, &delivered);
  EXPECT_EQ(delivered, std::vector<MatchResult>{(MatchResult{2, 16})});

  // The simulator applies the same filter and accounts for every match.
  setup(sim_cluster);
  SimOptions opts;
  opts.enable_adjust = false;
  const RunReport report = SimEngine(sim_cluster, opts).Run({object});
  EXPECT_EQ(report.matches_delivered, 1u);
  EXPECT_GT(report.duplicates_suppressed, 0u);
  EXPECT_EQ(report.matches_emitted,
            report.matches_delivered + report.duplicates_suppressed);
}

TEST_F(ClusterTest, TalliesTrackDeliveries) {
  cluster_->Process(StreamTuple::OfInsert(Query(1, {a_}, Rect(0, 0, 4, 4))));
  cluster_->Process(StreamTuple::OfObject(
      SpatioTextualObject::FromTerms(12, Point{2, 2}, {a_})));
  EXPECT_EQ(cluster_->tallies()[0].inserts, 1u);
  EXPECT_EQ(cluster_->tallies()[0].objects, 1u);
  EXPECT_EQ(cluster_->tallies()[1].inserts, 0u);
  cluster_->ResetLoadWindow();
  EXPECT_EQ(cluster_->tallies()[0].objects, 0u);
}

TEST_F(ClusterTest, MigrateCellMovesMatching) {
  cluster_->Process(StreamTuple::OfInsert(Query(1, {a_}, Rect(0, 0, 2, 2))));
  const CellId cell = grid_.CellOf(Point{1, 1});
  const auto stats = cluster_->MigrateCell(cell, 0, 1);
  EXPECT_EQ(stats.queries_moved, 1u);
  EXPECT_GT(stats.bytes, 0u);
  // Matching still works, now on worker 1.
  std::vector<MatchResult> delivered;
  cluster_->Process(StreamTuple::OfObject(SpatioTextualObject::FromTerms(
                        13, Point{1, 1}, {a_})),
                    &delivered);
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(cluster_->worker(0).NumActiveQueries(), 0u);
  EXPECT_EQ(cluster_->worker(1).NumActiveQueries(), 1u);
  // And deletion routes to the new location.
  cluster_->Process(StreamTuple::OfDelete(Query(1, {a_}, Rect(0, 0, 2, 2))));
  EXPECT_EQ(cluster_->worker(1).NumActiveQueries(), 0u);
}

TEST_F(ClusterTest, TextSplitCellPreservesMatching) {
  cluster_->Process(StreamTuple::OfInsert(Query(1, {a_}, Rect(0, 0, 2, 2))));
  cluster_->Process(StreamTuple::OfInsert(Query(2, {b_}, Rect(0, 0, 2, 2))));
  const CellId cell = grid_.CellOf(Point{1, 1});
  const auto stats =
      cluster_->TextSplitCell(cell, /*keep=*/0, /*to=*/1, {{a_, 0}, {b_, 1}});
  EXPECT_EQ(stats.queries_moved, 1u);  // query 2 moved to worker 1
  std::vector<MatchResult> delivered;
  cluster_->Process(StreamTuple::OfObject(SpatioTextualObject::FromTerms(
                        14, Point{1, 1}, {a_, b_})),
                    &delivered);
  EXPECT_EQ(testutil::Sorted(delivered),
            testutil::Sorted({MatchResult{1, 14}, MatchResult{2, 14}}));
}

TEST_F(ClusterTest, MergeCellCollapsesTextSplit) {
  cluster_->Process(StreamTuple::OfInsert(Query(1, {a_}, Rect(0, 0, 2, 2))));
  cluster_->Process(StreamTuple::OfInsert(Query(2, {b_}, Rect(0, 0, 2, 2))));
  const CellId cell = grid_.CellOf(Point{1, 1});
  cluster_->TextSplitCell(cell, 0, 1, {{a_, 0}, {b_, 1}});
  const auto stats = cluster_->MergeCellTo(cell, 1);
  EXPECT_GE(stats.queries_moved, 1u);
  std::vector<MatchResult> delivered;
  cluster_->Process(StreamTuple::OfObject(SpatioTextualObject::FromTerms(
                        15, Point{1, 1}, {a_, b_})),
                    &delivered);
  EXPECT_EQ(delivered.size(), 2u);
  EXPECT_EQ(cluster_->worker(0).NumActiveQueries(), 0u);
}

// Full-pipeline integration: random workload, every partitioner, with
// migrations interleaved; results must always match the reference.
class ClusterIntegrationTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ClusterIntegrationTest, CorrectUnderMigrations) {
  auto w = testutil::MakeWorkload(211, 600, 200);
  PartitionConfig cfg;
  cfg.num_workers = 4;
  cfg.grid_k = 4;
  const PartitionPlan plan =
      MakePartitioner(GetParam())->Build(w.sample, w.vocab, cfg);
  Cluster cluster(plan, &w.vocab);
  ReferenceMatcher ref;
  for (const auto& q : w.sample.inserts) {
    cluster.Process(StreamTuple::OfInsert(q));
    ref.Insert(q);
  }
  Rng rng(3);
  size_t checked = 0;
  for (size_t i = 0; i < w.extra_objects.size(); ++i) {
    // Interleave random cell migrations between objects.
    if (i % 25 == 0) {
      const WorkerId from = rng.NextBelow(4);
      const WorkerId to = rng.NextBelow(4);
      const auto stats = cluster.worker(from).AllCellStats();
      if (!stats.empty() && from != to) {
        cluster.MigrateCell(stats[rng.NextBelow(stats.size())].cell, from,
                            to);
      }
    }
    std::vector<MatchResult> got;
    cluster.Process(StreamTuple::OfObject(w.extra_objects[i]), &got);
    ASSERT_EQ(testutil::Sorted(got),
              testutil::Sorted(ref.Match(w.extra_objects[i])))
        << GetParam() << " object " << i;
    checked += got.size();
  }
  EXPECT_GT(checked, 10u);
}

INSTANTIATE_TEST_SUITE_P(AllPartitioners, ClusterIntegrationTest,
                         ::testing::Values("metric", "kdtree", "hybrid"));

}  // namespace
}  // namespace ps2
