#include "runtime/threaded_engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "adjust/load_controller.h"
#include "dispatch/routing_snapshot.h"
#include "index/reference_matcher.h"
#include "runtime/ps2stream.h"
#include "runtime/sim_engine.h"
#include "test_util.h"

namespace ps2 {
namespace {

// A deliberately pathological plan: every cell space-routed to worker 0.
// The only way such a cluster balances is through live migrations.
PartitionPlan SkewedPlan(const Rect& bounds, int grid_k, int num_workers) {
  PartitionPlan plan;
  plan.grid = GridSpec(bounds, grid_k);
  plan.num_workers = num_workers;
  plan.cells.resize(plan.grid.NumCells());  // CellRoute{} -> worker 0
  return plan;
}

// The threaded engine must produce the exact deduped match set of the
// synchronous cluster on the same input — not just the same count.
TEST(ThreadedEngineEquivalenceTest, ExactMatchSetVsSynchronousCluster) {
  auto w = testutil::MakeWorkload(907, 1200, 350);
  PartitionConfig cfg;
  cfg.num_workers = 4;
  cfg.grid_k = 4;
  const PartitionPlan plan =
      MakePartitioner("hybrid")->Build(w.sample, w.vocab, cfg);

  std::vector<StreamTuple> input;
  for (const auto& q : w.sample.inserts) {
    input.push_back(StreamTuple::OfInsert(q));
  }
  for (const auto& o : w.extra_objects) {
    input.push_back(StreamTuple::OfObject(o));
  }

  Cluster sync_cluster(plan, &w.vocab);
  std::vector<MatchResult> sync_matches;
  for (const auto& t : input) sync_cluster.Process(t, &sync_matches);

  Cluster threaded_cluster(plan, &w.vocab);
  testutil::CollectingSink sink;
  EngineOptions opts;
  opts.num_dispatchers = 3;
  opts.delivery = &sink;
  ThreadedEngine engine(threaded_cluster, opts);
  const RunReport report = engine.Run(input);

  EXPECT_EQ(report.matches_delivered, sync_matches.size());
  EXPECT_EQ(testutil::Sorted(sink.Take()), testutil::Sorted(sync_matches));
  // Per-thread dispatcher stats aggregate to the stream totals.
  EXPECT_EQ(report.dispatch.inserts_routed, w.sample.inserts.size());
  EXPECT_EQ(report.dispatch.objects_routed + report.dispatch.objects_discarded,
            w.extra_objects.size());
}

// ThreadedEngine and SimEngine run the same stream behind the common
// Engine interface.
TEST(EngineInterfaceTest, PolymorphicRun) {
  auto w = testutil::MakeWorkload(909, 500, 120);
  PartitionConfig cfg;
  cfg.num_workers = 2;
  cfg.grid_k = 3;
  const PartitionPlan plan =
      MakePartitioner("grid")->Build(w.sample, w.vocab, cfg);
  std::vector<StreamTuple> input;
  for (const auto& q : w.sample.inserts) {
    input.push_back(StreamTuple::OfInsert(q));
  }
  for (const auto& o : w.extra_objects) {
    input.push_back(StreamTuple::OfObject(o));
  }

  Cluster threaded_cluster(plan, &w.vocab);
  Cluster sim_cluster(plan, &w.vocab);
  SimOptions sim_opts;
  sim_opts.enable_adjust = false;
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(std::make_unique<ThreadedEngine>(threaded_cluster));
  engines.push_back(std::make_unique<SimEngine>(sim_cluster, sim_opts));

  uint64_t matches[2] = {0, 0};
  for (size_t i = 0; i < engines.size(); ++i) {
    const RunReport report = engines[i]->Run(input);
    EXPECT_EQ(report.tuples_processed, input.size()) << engines[i]->name();
    EXPECT_GT(report.matches_delivered, 0u) << engines[i]->name();
    matches[i] = report.matches_delivered;
  }
  EXPECT_EQ(matches[0], matches[1]);
  EXPECT_EQ(engines[0]->name(), "threaded");
  EXPECT_EQ(engines[1]->name(), "sim");
}

// The acceptance test of the online controller: a cluster whose plan pins
// everything to worker 0 must rebalance through live migrations mid-run,
// and the delivered match set must still be exactly the reference set — no
// delivery lost to a routing swap, no duplicate surviving the dedup window.
TEST(ThreadedEngineLiveMigrationTest, RebalancesWithoutLosingDeliveries) {
  auto w = testutil::MakeWorkload(911, 2000, 400);
  const PartitionPlan plan = SkewedPlan(w.sample.Bounds(), 4, 4);

  ReferenceMatcher ref;
  std::vector<StreamTuple> input;
  std::vector<MatchResult> expected;
  for (const auto& q : w.sample.inserts) {
    input.push_back(StreamTuple::OfInsert(q));
    ref.Insert(q);
  }
  for (const auto& o : w.sample.objects) {
    input.push_back(StreamTuple::OfObject(o));
  }
  for (const auto& o : w.extra_objects) {
    input.push_back(StreamTuple::OfObject(o));
  }
  for (const auto& t : input) {
    if (t.kind == TupleKind::kObject) {
      for (const auto& m : ref.Match(t.object)) expected.push_back(m);
    }
  }

  Cluster cluster(plan, &w.vocab);
  testutil::CollectingSink sink;
  EngineOptions opts;
  opts.num_dispatchers = 2;
  opts.delivery = &sink;
  // Pace the stream so the run spans many controller intervals.
  opts.input_rate_tps = 25000.0;
  opts.controller.enabled = true;
  opts.controller.interval_ms = 2;
  opts.controller.min_tuples = 100;
  opts.controller.config.adjust.sigma = 1.2;
  opts.controller.config.adjust.selector = "GR";
  ThreadedEngine engine(cluster, opts);
  const RunReport report = engine.Run(input);

  ASSERT_GE(report.adjustments, 1u);
  EXPECT_GT(report.queries_migrated, 0u);
  EXPECT_GT(report.routing_epochs, 1u);
  ASSERT_NE(engine.controller(), nullptr);
  EXPECT_GE(engine.controller()->totals().triggered, 1u);

  // Queries actually left the overloaded worker.
  size_t off_worker0 = 0;
  for (WorkerId w_id = 1; w_id < 4; ++w_id) {
    off_worker0 += cluster.worker(w_id).NumActiveQueries();
  }
  EXPECT_GT(off_worker0, 0u);

  // No lost or duplicated deliveries versus the synchronous reference.
  EXPECT_EQ(testutil::Sorted(sink.Take()), testutil::Sorted(expected));
}

// The async facade: subscriptions and publications submitted while the
// engine runs, with the report produced on Stop().
TEST(PS2StreamAsyncTest, StartSubscribePublishStop) {
  auto w = testutil::MakeWorkload(913, 600, 150);
  PS2StreamOptions opts;
  opts.partition.num_workers = 2;
  opts.partition.grid_k = 3;
  opts.engine.num_dispatchers = 2;
  PS2Stream ps2(opts);
  ps2.Bootstrap(w.sample);
  ps2.Start();
  ASSERT_TRUE(ps2.started());

  ReferenceMatcher ref;
  for (const auto& q : w.sample.inserts) {
    auto sub = ps2.Subscribe(nullptr, q);
    ASSERT_TRUE(sub.ok());
    sub->Release();
    ref.Insert(q);
  }
  size_t expected = 0;
  for (const auto& o : w.extra_objects) {
    EXPECT_TRUE(ps2.Post(o).ok());  // async: matches arrive via sessions
    expected += ref.Match(o).size();
  }
  const RunReport report = ps2.Stop();
  EXPECT_FALSE(ps2.started());
  EXPECT_EQ(report.matches_delivered, expected);
  EXPECT_EQ(report.inserts, w.sample.inserts.size());
  EXPECT_EQ(report.objects, w.extra_objects.size());
}

// Epoch semantics of the snapshot-published routing table: an installed
// mutation is visible to new readers, while a pinned old epoch keeps
// routing exactly as before the swap.
TEST(SnapshotRouterTest, PinnedEpochSurvivesMutation) {
  auto w = testutil::MakeWorkload(915, 300, 80);
  PartitionConfig cfg;
  cfg.num_workers = 2;
  cfg.grid_k = 3;
  const PartitionPlan plan =
      MakePartitioner("grid")->Build(w.sample, w.vocab, cfg);
  GridtIndex master(plan, &w.vocab);
  SnapshotRouter router(&master);

  const SpatioTextualObject& probe = w.extra_objects.front();
  const CellId cell = plan.grid.CellOf(probe.loc);
  const WorkerId original = plan.cells[cell].worker;
  const WorkerId moved = original == 0 ? 1 : 0;

  auto before = router.Current();
  const bool published = router.Mutate([&](GridtIndex& m) {
    m.ReassignCell(cell, moved);
    return true;
  });
  ASSERT_TRUE(published);
  auto after = router.Current();
  EXPECT_GT(after->version, before->version);

  std::vector<WorkerId> via_old, via_new;
  before->RouteObject(probe, &via_old);
  after->RouteObject(probe, &via_new);
  ASSERT_EQ(via_old.size(), 1u);
  ASSERT_EQ(via_new.size(), 1u);
  EXPECT_EQ(via_old[0], original);
  EXPECT_EQ(via_new[0], moved);
}

// Query updates republish the text cells they touch: an object only routes
// to workers holding a live query keyed by one of its terms.
TEST(SnapshotRouterTest, QueryUpdatesRepublishH2) {
  Vocabulary vocab;
  const TermId rare = vocab.Intern("rare");
  const TermId common = vocab.Intern("common");
  for (int i = 0; i < 50; ++i) vocab.AddCount(common);
  vocab.AddCount(rare);

  PartitionPlan plan;
  plan.grid = GridSpec(Rect(0, 0, 10, 10), 1);
  plan.num_workers = 2;
  plan.cells.resize(plan.grid.NumCells());
  auto term_router = std::make_shared<const TermRouter>(
      std::unordered_map<TermId, WorkerId>{{rare, 0}, {common, 1}},
      std::vector<WorkerId>{0, 1});
  for (auto& c : plan.cells) c.text = term_router;

  GridtIndex master(plan, &vocab);
  SnapshotRouter router(&master);
  const uint64_t v0 = router.version();

  SpatioTextualObject o =
      SpatioTextualObject::FromTerms(1, Point{2, 2}, {rare});
  std::vector<WorkerId> out;
  router.Current()->RouteObject(o, &out);
  EXPECT_TRUE(out.empty());  // no live query -> discard at the dispatcher

  STSQuery q;
  q.id = 42;
  q.expr = BoolExpr::And({rare});
  q.region = Rect(0, 0, 10, 10);
  router.RouteInsert(q);
  EXPECT_GT(router.version(), v0);
  router.Current()->RouteObject(o, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0);  // rare routes to worker 0

  router.RouteDelete(q);
  router.Current()->RouteObject(o, &out);
  EXPECT_TRUE(out.empty());
}

// The LoadController seam drives the same adjuster the simulator uses.
TEST(LoadControllerTest, SyncCheckRebalancesAndRecordsTotals) {
  auto w = testutil::MakeWorkload(917, 1000, 250);
  const PartitionPlan plan = SkewedPlan(w.sample.Bounds(), 3, 2);
  Cluster cluster(plan, &w.vocab);
  for (const auto& q : w.sample.inserts) {
    cluster.Process(StreamTuple::OfInsert(q));
  }
  for (const auto& o : w.sample.objects) {
    cluster.Process(StreamTuple::OfObject(o));
  }

  LoadControllerConfig cfg;
  cfg.adjust.sigma = 1.1;
  cfg.evaluate_global = true;
  cfg.global_check_every = 1;
  cfg.partition.num_workers = 2;
  cfg.partition.grid_k = 3;
  LoadController controller(cfg);
  const AdjustReport report = controller.Check(cluster, w.sample);

  EXPECT_TRUE(report.triggered);
  EXPECT_EQ(report.overloaded, 0);
  EXPECT_EQ(controller.totals().checks, 1u);
  EXPECT_EQ(controller.totals().triggered, 1u);
  EXPECT_GE(controller.totals().adjustments, 1u);
  EXPECT_GT(controller.totals().queries_moved, 0u);
  EXPECT_GT(cluster.worker(1).NumActiveQueries(), 0u);
  EXPECT_EQ(controller.global_evaluations(), 1u);
  ASSERT_NE(controller.last_global_decision(), nullptr);
  EXPECT_GT(controller.last_global_decision()->current_load, 0.0);
}

}  // namespace
}  // namespace ps2
