#include "partition/hybrid.h"

#include <gtest/gtest.h>

#include "partition/space_kdtree.h"
#include "partition/text_metric.h"
#include "test_util.h"

namespace ps2 {
namespace {

PartitionConfig Config(int workers = 8) {
  PartitionConfig cfg;
  cfg.num_workers = workers;
  cfg.grid_k = 4;
  return cfg;
}

TEST(HybridTest, EmptySampleSingleWorkerPlan) {
  HybridPartitioner hybrid;
  Vocabulary vocab;
  WorkloadSample empty;
  const PartitionPlan plan = hybrid.Build(empty, vocab, Config(4));
  for (const auto& c : plan.cells) {
    EXPECT_FALSE(c.IsText());
    EXPECT_EQ(c.worker, 0);
  }
}

TEST(HybridTest, SingleWorkerShortCircuits) {
  auto w = testutil::MakeWorkload(7);
  HybridPartitioner hybrid;
  const PartitionPlan plan = hybrid.Build(w.sample, w.vocab, Config(1));
  for (const auto& c : plan.cells) EXPECT_EQ(c.worker, 0);
}

TEST(HybridTest, ProducesMultipleWorkersAndReportsInfo) {
  auto w = testutil::MakeWorkload(13, 2500, 600);
  HybridPartitioner hybrid;
  const PartitionPlan plan = hybrid.Build(w.sample, w.vocab, Config(8));
  std::set<WorkerId> used;
  for (const auto& c : plan.cells) {
    if (c.IsText()) {
      for (const WorkerId worker : c.text->workers()) used.insert(worker);
    } else {
      used.insert(c.worker);
    }
  }
  EXPECT_GE(used.size(), 4u);
  const auto& info = hybrid.last_build_info();
  EXPECT_GE(info.final_leaves, 8u);
  EXPECT_GT(info.estimated_total_load, 0.0);
}

// When object and query texts are dissimilar (queries use rare terms only),
// hybrid should deploy text partitioning somewhere; when they are identical
// and queries are tiny, it should prefer space partitioning everywhere.
TEST(HybridTest, ChoosesTextPartitioningForDissimilarWorkload) {
  Vocabulary vocab;
  std::vector<TermId> obj_terms, qry_terms;
  for (int i = 0; i < 20; ++i) {
    obj_terms.push_back(vocab.Intern("obj" + std::to_string(i)));
    qry_terms.push_back(vocab.Intern("qry" + std::to_string(i)));
  }
  Rng rng(5);
  WorkloadSample sample;
  for (int i = 0; i < 1500; ++i) {
    // Objects carry one query term occasionally so queries have matches but
    // distributions stay dissimilar.
    std::vector<TermId> ts{obj_terms[rng.NextBelow(20)],
                           obj_terms[rng.NextBelow(20)]};
    if (rng.NextBernoulli(0.15)) ts.push_back(qry_terms[rng.NextBelow(20)]);
    sample.objects.push_back(SpatioTextualObject::FromTerms(
        i + 1, Point{rng.NextUniform(0, 100), rng.NextUniform(0, 100)}, ts));
    for (const TermId t : sample.objects.back().terms) vocab.AddCount(t);
  }
  for (int i = 0; i < 400; ++i) {
    STSQuery q;
    q.id = i + 1;
    q.expr = BoolExpr::And({qry_terms[rng.NextBelow(20)]});
    // Large, clustered regions: space partitioning would duplicate heavily.
    const Point c{rng.NextUniform(30, 70), rng.NextUniform(30, 70)};
    q.region = Rect::Centered(c, 50, 50);
    sample.inserts.push_back(q);
  }
  HybridPartitioner hybrid;
  const PartitionPlan plan = hybrid.Build(sample, vocab, Config(8));
  EXPECT_GT(plan.NumTextCells(), 0u);
}

TEST(HybridTest, ChoosesSpacePartitioningForSimilarLocalWorkload) {
  Vocabulary vocab;
  std::vector<TermId> terms;
  for (int i = 0; i < 30; ++i) {
    terms.push_back(vocab.Intern("t" + std::to_string(i)));
  }
  Rng rng(6);
  WorkloadSample sample;
  for (int i = 0; i < 1500; ++i) {
    std::vector<TermId> ts{terms[rng.NextBelow(30)], terms[rng.NextBelow(30)]};
    sample.objects.push_back(SpatioTextualObject::FromTerms(
        i + 1, Point{rng.NextUniform(0, 100), rng.NextUniform(0, 100)}, ts));
    for (const TermId t : sample.objects.back().terms) vocab.AddCount(t);
  }
  for (int i = 0; i < 500; ++i) {
    STSQuery q;
    q.id = i + 1;
    // Same term distribution as objects, small well-spread regions.
    q.expr = BoolExpr::And({terms[rng.NextBelow(30)]});
    const Point c{rng.NextUniform(0, 100), rng.NextUniform(0, 100)};
    q.region = Rect::Centered(c, 3, 3);
    sample.inserts.push_back(q);
  }
  HybridPartitioner hybrid;
  const PartitionPlan plan = hybrid.Build(sample, vocab, Config(8));
  // Mostly (or entirely) space-routed.
  EXPECT_LT(plan.NumTextCells(), plan.grid.NumCells() / 4);
}

// The headline claim at small scale: on a mixed-regime workload, hybrid's
// estimated total load should not exceed either pure strategy's.
TEST(HybridTest, TotalLoadAtMostPureStrategies) {
  auto w = testutil::MakeWorkload(29, 3000, 800);
  const PartitionConfig cfg = Config(8);
  HybridPartitioner hybrid;
  MetricTextPartitioner metric;
  KdTreeSpacePartitioner kdtree;
  const double h =
      EstimatePlanLoad(hybrid.Build(w.sample, w.vocab, cfg), w.sample,
                       cfg.cost)
          .total_load;
  const double t =
      EstimatePlanLoad(metric.Build(w.sample, w.vocab, cfg), w.sample,
                       cfg.cost)
          .total_load;
  const double s =
      EstimatePlanLoad(kdtree.Build(w.sample, w.vocab, cfg), w.sample,
                       cfg.cost)
          .total_load;
  // Allow 10% slack: hybrid optimizes on its own internal estimates.
  EXPECT_LE(h, 1.10 * std::min(t, s));
}

TEST(HybridTest, RespectsBalanceConstraintWhenAchievable) {
  auto w = testutil::MakeWorkload(31, 2500, 500);
  PartitionConfig cfg = Config(4);
  cfg.sigma = 2.0;
  HybridPartitioner hybrid;
  const PartitionPlan plan = hybrid.Build(w.sample, w.vocab, cfg);
  const auto report = EstimatePlanLoad(plan, w.sample, cfg.cost);
  // The internal balance loop targets sigma on its leaf estimates; the
  // realized balance can be somewhat worse, but must stay in the ballpark.
  EXPECT_LT(report.balance, cfg.sigma * 2.5);
}

}  // namespace
}  // namespace ps2
