#include "runtime/engine.h"

#include <gtest/gtest.h>

#include "index/reference_matcher.h"
#include "partition/plan.h"
#include "runtime/threaded_engine.h"
#include "test_util.h"

namespace ps2 {
namespace {

// The threaded engine must deliver exactly the reference match set (the
// dedup window drops cross-worker duplicates; ordering differs, counts must
// agree) and report sane metrics.
class ThreadedEngineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadedEngineTest, DeliversReferenceMatches) {
  auto w = testutil::MakeWorkload(601, 1000, 300);
  PartitionConfig cfg;
  cfg.num_workers = 4;
  cfg.grid_k = 4;
  const PartitionPlan plan =
      MakePartitioner(GetParam())->Build(w.sample, w.vocab, cfg);
  Cluster cluster(plan, &w.vocab);

  // Reference result: distinct (query, object) matches over the stream.
  ReferenceMatcher ref;
  size_t expected = 0;
  std::vector<StreamTuple> input;
  for (const auto& q : w.sample.inserts) {
    input.push_back(StreamTuple::OfInsert(q));
    ref.Insert(q);
  }
  for (const auto& o : w.extra_objects) {
    input.push_back(StreamTuple::OfObject(o));
    expected += ref.Match(o).size();
  }

  EngineOptions opts;
  opts.num_dispatchers = 2;
  const RunReport report = ThreadedEngine(cluster, opts).Run(input);
  EXPECT_EQ(report.matches_delivered, expected) << GetParam();
  EXPECT_EQ(report.tuples_processed, input.size());
  EXPECT_GT(report.throughput_tps, 0.0);
  EXPECT_EQ(report.inserts, w.sample.inserts.size());
  EXPECT_EQ(report.objects, w.extra_objects.size());
  EXPECT_GT(report.latency.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Partitioners, ThreadedEngineTest,
                         ::testing::Values("metric", "kdtree", "hybrid"));

TEST(ThreadedEngineTest, ThrottledRunHasBoundedRate) {
  auto w = testutil::MakeWorkload(603, 300, 100);
  PartitionConfig cfg;
  cfg.num_workers = 2;
  cfg.grid_k = 3;
  const PartitionPlan plan =
      MakePartitioner("grid")->Build(w.sample, w.vocab, cfg);
  Cluster cluster(plan, &w.vocab);
  std::vector<StreamTuple> input;
  for (const auto& o : w.sample.objects) {
    input.push_back(StreamTuple::OfObject(o));
    if (input.size() >= 2000) break;
  }
  EngineOptions opts;
  opts.num_dispatchers = 1;
  opts.input_rate_tps = 20000.0;
  const RunReport report = ThreadedEngine(cluster, opts).Run(input);
  // Pacing bounds throughput near the requested rate (within 50%).
  EXPECT_LT(report.throughput_tps, 30000.0);
}

TEST(ThreadedEngineTest, WorkerMemoryReported) {
  auto w = testutil::MakeWorkload(605, 400, 200);
  PartitionConfig cfg;
  cfg.num_workers = 3;
  cfg.grid_k = 3;
  const PartitionPlan plan =
      MakePartitioner("metric")->Build(w.sample, w.vocab, cfg);
  Cluster cluster(plan, &w.vocab);
  std::vector<StreamTuple> input;
  for (const auto& q : w.sample.inserts) {
    input.push_back(StreamTuple::OfInsert(q));
  }
  const RunReport report = ThreadedEngine(cluster, EngineOptions{}).Run(input);
  ASSERT_EQ(report.worker_memory_bytes.size(), 3u);
  size_t total = 0;
  for (const size_t b : report.worker_memory_bytes) total += b;
  EXPECT_GT(total, 0u);
  EXPECT_GT(report.dispatcher_memory_bytes, 0u);
}

TEST(LatencyHistogramTest, BasicStats) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 100.0);  // 100us..10ms
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.MeanMicros(), 5050.0, 1.0);
  EXPECT_GT(h.PercentileMicros(0.9), h.PercentileMicros(0.5));
  EXPECT_NEAR(h.FractionBelow(1e9), 1.0, 1e-9);
  EXPECT_NEAR(h.FractionBelow(0.5), 0.0, 1e-9);
}

TEST(LatencyHistogramTest, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.Record(100);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.MeanMicros(), 550.0);
  EXPECT_DOUBLE_EQ(a.MaxMicros(), 1000.0);
}

TEST(LatencyHistogramTest, FractionBelowMonotone) {
  LatencyHistogram h;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    h.Record(rng.NextUniform(1, 1e6));
  }
  double prev = 0.0;
  for (double us = 10; us < 1e6; us *= 3) {
    const double f = h.FractionBelow(us);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

}  // namespace
}  // namespace ps2
