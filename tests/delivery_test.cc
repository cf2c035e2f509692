// Delivery correctness: the session-delivered match set must equal the
// synchronous cluster's deduped match set — across execution modes, under
// live migration, and with subscription churn — and a blocked kBlock
// session must never wedge Stop().
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "api/delivery_router.h"
#include "index/reference_matcher.h"
#include "runtime/ps2stream.h"
#include "runtime/sim_engine.h"
#include "runtime/threaded_engine.h"
#include "test_util.h"

namespace ps2 {
namespace {

using std::chrono::milliseconds;

std::vector<MatchResult> ToMatches(const std::vector<Delivery>& ds) {
  std::vector<MatchResult> out;
  out.reserve(ds.size());
  for (const Delivery& d : ds) {
    MatchResult m;
    m.query_id = d.query_id;
    m.object_id = d.object_id;
    out.push_back(m);
  }
  return out;
}

// Drains everything currently pending (assumes producers are done).
std::vector<Delivery> DrainAll(SubscriberSession& session) {
  std::vector<Delivery> out;
  while (session.TakeBatch(&out, 1 << 20, milliseconds(0)) > 0) {
  }
  return out;
}

// The same subscribe/post sequence against a synchronous facade and a
// started one must deliver the *identical* deduped match set to their
// sessions — one delivery contract across both execution modes.
TEST(DeliverySemanticsTest, SyncAndStartedModesDeliverTheSameSet) {
  auto w = testutil::MakeWorkload(1201, 900, 250);

  auto run = [&](bool start_engine) {
    PS2StreamOptions opts;
    opts.partition.num_workers = 4;
    opts.engine.num_dispatchers = 2;
    PS2Stream ps2(opts);
    ps2.Bootstrap(w.sample);
    SessionOptions sopts;
    sopts.queue_capacity = 1 << 20;  // never overflows: exact-set comparison
    auto session = ps2.OpenSession(sopts);
    std::vector<Subscription> subs;
    for (const auto& q : w.sample.inserts) {
      auto sub = ps2.Subscribe(session, q);
      EXPECT_TRUE(sub.ok()) << sub.status().ToString();
      subs.push_back(std::move(*sub));
    }
    if (start_engine) ps2.Start();
    for (const auto& o : w.extra_objects) {
      EXPECT_TRUE(ps2.Post(o).ok());
    }
    RunReport report;
    if (start_engine) report = ps2.Stop();
    std::vector<Delivery> got = DrainAll(*session);
    if (start_engine) {
      EXPECT_EQ(report.session_deliveries, got.size());
      EXPECT_EQ(report.session_drops, 0u);
      EXPECT_EQ(report.delivery_latency.count(), got.size());
    }
    // Handles must not unsubscribe against a stopped facade mid-teardown;
    // release them (the facade owns the remaining lifetime).
    for (auto& s : subs) s.Release();
    return testutil::Sorted(ToMatches(got));
  };

  const auto sync_set = run(false);
  const auto started_set = run(true);
  ASSERT_FALSE(sync_set.empty());
  EXPECT_EQ(sync_set, started_set);
}

// Posting the same caller-chosen object id twice delivers each of its
// matches once in every mode: the delivery sink's window, not the cluster,
// owns suppression across posts.
TEST(DeliverySemanticsTest, RepeatedObjectIdDeliversOnceInEveryMode) {
  struct Mode {
    const char* name;
    int num_shards;
    bool started;
  };
  const Mode kModes[] = {
      {"sync", 1, false}, {"started", 1, true}, {"fabric-2", 2, false}};
  auto w = testutil::MakeWorkload(1215, 400, 120);
  ReferenceMatcher ref;
  for (const auto& q : w.sample.inserts) ref.Insert(q);
  std::vector<MatchResult> expected;
  for (const auto& o : w.extra_objects) {
    const auto ms = ref.Match(o);
    expected.insert(expected.end(), ms.begin(), ms.end());
  }
  ASSERT_FALSE(expected.empty());

  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    PS2StreamOptions opts;
    opts.partition.num_workers = 2;
    opts.engine.num_dispatchers = 1;
    opts.sharding.num_shards = mode.num_shards;
    PS2Stream ps2(opts);
    ps2.Bootstrap(w.sample);
    SessionOptions sopts;
    sopts.queue_capacity = 1 << 16;  // never overflows: exact-set comparison
    auto session = ps2.OpenSession(sopts);
    for (const auto& q : w.sample.inserts) {
      auto sub = ps2.Subscribe(session, q);
      ASSERT_TRUE(sub.ok()) << sub.status().ToString();
      sub->Release();
    }
    if (mode.started) ps2.Start();
    for (const auto& o : w.extra_objects) {
      ASSERT_TRUE(ps2.Post(o).ok());
      ASSERT_TRUE(ps2.Post(o).ok());
    }
    if (mode.started) ps2.Stop();
    EXPECT_EQ(testutil::Sorted(ToMatches(DrainAll(*session))),
              testutil::Sorted(expected));
  }
}

// A deliberately pathological plan (everything on worker 0) forces the
// online controller to migrate cells mid-run; sessions must still receive
// exactly the reference match set — no delivery lost to a routing swap, no
// duplicate surviving the dedup window.
TEST(DeliveryLiveMigrationTest, SessionSetSurvivesLiveMigration) {
  auto w = testutil::MakeWorkload(1203, 1600, 400);
  PartitionPlan plan;
  plan.grid = GridSpec(w.sample.Bounds(), 4);
  plan.num_workers = 4;
  plan.cells.resize(plan.grid.NumCells());  // CellRoute{} -> worker 0

  ReferenceMatcher ref;
  std::vector<StreamTuple> input;
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
  std::vector<MatchResult> expected;
  for (const auto& o : w.sample.objects) {
    const auto ms = ref.Match(o);
    expected.insert(expected.end(), ms.begin(), ms.end());
  }
  for (const auto& o : w.extra_objects) {
    const auto ms = ref.Match(o);
    expected.insert(expected.end(), ms.begin(), ms.end());
  }

  DeliveryRouter router;
  SessionOptions sopts;
  sopts.queue_capacity = 4096;
  sopts.backpressure = BackpressurePolicy::kBlock;
  auto session = std::make_shared<SubscriberSession>(sopts);
  router.RegisterSession(session);
  for (const auto& q : w.sample.inserts) router.Route(q.id, session);

  Cluster cluster(plan, &w.vocab);
  EngineOptions opts;
  opts.num_dispatchers = 2;
  opts.delivery = &router;
  opts.controller.enabled = true;
  opts.controller.interval_ms = 2;
  opts.controller.min_tuples = 400;
  opts.controller.config.adjust.sigma = 1.3;
  ThreadedEngine engine(cluster, opts);

  // Consume concurrently (the bounded kBlock queue backpressures workers,
  // so a run this size cannot complete without a live consumer).
  std::vector<Delivery> got;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    std::vector<Delivery> batch;
    while (!done.load(std::memory_order_acquire)) {
      batch.clear();
      session->TakeBatch(&batch, 1024, milliseconds(5));
      got.insert(got.end(), batch.begin(), batch.end());
    }
    batch.clear();
    while (session->TakeBatch(&batch, 1024, milliseconds(0)) > 0) {
      got.insert(got.end(), batch.begin(), batch.end());
      batch.clear();
    }
  });
  const RunReport report = engine.Run(input);
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(report.session_drops, 0u);  // filled by facade normally; 0 here
  EXPECT_EQ(testutil::Sorted(ToMatches(got)), testutil::Sorted(expected));
  EXPECT_EQ(report.matches_delivered, expected.size());
  EXPECT_EQ(session->stats().delivered, expected.size());
  EXPECT_EQ(session->stats().dropped, 0u);
}

// Under live migration, cell moves re-emit matches from two workers and the
// router's dedup window is the only filter that keeps them unique: with an
// unbounded session queue the delivered set is exactly the reference set.
TEST(DeliveryLiveMigrationTest, DedupWindowDeliversMigrationCopiesOnce) {
  auto w = testutil::MakeWorkload(1213, 1600, 400);
  PartitionPlan plan;
  plan.grid = GridSpec(w.sample.Bounds(), 4);
  plan.num_workers = 4;
  plan.cells.resize(plan.grid.NumCells());  // CellRoute{} -> worker 0

  ReferenceMatcher ref;
  std::vector<StreamTuple> input;
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
  std::vector<MatchResult> expected;
  for (const auto& t : input) {
    if (t.kind != TupleKind::kObject) continue;
    const auto ms = ref.Match(t.object);
    expected.insert(expected.end(), ms.begin(), ms.end());
  }

  DeliveryRouter router;
  SessionOptions sopts;
  sopts.queue_capacity = 1 << 20;  // never overflows: exact-set comparison
  auto session = std::make_shared<SubscriberSession>(sopts);
  router.RegisterSession(session);
  for (const auto& q : w.sample.inserts) router.Route(q.id, session);

  Cluster cluster(plan, &w.vocab);
  EngineOptions opts;
  opts.num_dispatchers = 2;
  opts.delivery = &router;
  opts.controller.enabled = true;
  opts.controller.interval_ms = 2;
  opts.controller.min_tuples = 400;
  opts.controller.config.adjust.sigma = 1.3;
  ThreadedEngine engine(cluster, opts);
  const RunReport report = engine.Run(input);

  EXPECT_EQ(report.matches_delivered, expected.size());
  const auto got = testutil::Sorted(ToMatches(DrainAll(*session)));
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, testutil::Sorted(expected));
}

// Subscription churn while the engine runs and a consumer drains: the
// stable subscriptions (live for the whole run) must receive exactly the
// reference set; churned ones must deliver nothing after their cancel
// returns. TSan (CI) runs this for the data-race half of the claim.
TEST(DeliveryChurnTest, StableSubscriptionsUnaffectedByChurn) {
  auto w = testutil::MakeWorkload(1207, 1000, 300);
  PS2StreamOptions opts;
  opts.partition.num_workers = 4;
  opts.engine.num_dispatchers = 2;
  PS2Stream ps2(opts);
  ps2.Bootstrap(w.sample);

  SessionOptions sopts;
  sopts.queue_capacity = 1 << 20;
  auto stable_session = ps2.OpenSession(sopts);
  auto churn_session = ps2.OpenSession(sopts);

  // Half the queries are stable, half churn mid-stream.
  std::vector<Subscription> stable;
  std::vector<STSQuery> churn_pool;
  for (size_t i = 0; i < w.sample.inserts.size(); ++i) {
    if (i % 2 == 0) {
      auto sub = ps2.Subscribe(stable_session, w.sample.inserts[i]);
      ASSERT_TRUE(sub.ok());
      stable.push_back(std::move(*sub));
    } else {
      churn_pool.push_back(w.sample.inserts[i]);
    }
  }

  ps2.Start();
  std::atomic<bool> done{false};
  std::vector<Delivery> got;
  std::thread consumer([&] {
    std::vector<Delivery> batch;
    while (!done.load(std::memory_order_acquire)) {
      batch.clear();
      stable_session->TakeBatch(&batch, 1024, milliseconds(2));
      got.insert(got.end(), batch.begin(), batch.end());
      batch.clear();
      churn_session->TakeBatch(&batch, 1024, milliseconds(0));
    }
  });

  // Control plane (this thread, the engine's single producer): posts
  // interleaved with churn subscribe/cancel.
  std::vector<Subscription> churned;
  size_t next_churn = 0;
  for (size_t i = 0; i < w.extra_objects.size(); ++i) {
    ASSERT_TRUE(ps2.Post(w.extra_objects[i]).ok());
    if (i % 7 == 0 && next_churn < churn_pool.size()) {
      auto sub = ps2.Subscribe(churn_session, churn_pool[next_churn++]);
      ASSERT_TRUE(sub.ok());
      churned.push_back(std::move(*sub));
    }
    if (i % 11 == 0 && !churned.empty()) {
      churned.pop_back();  // ~Subscription -> Cancel mid-stream
    }
  }
  const RunReport report = ps2.Stop();
  done.store(true, std::memory_order_release);
  consumer.join();
  for (auto& d : DrainAll(*stable_session)) got.push_back(d);

  // Reference: stable queries against every posted object.
  ReferenceMatcher ref;
  for (const auto& s : stable) {
    // The facade still holds the query; fetch it by id.
    ref.Insert(ps2.subscriptions().at(s.id()));
  }
  std::vector<MatchResult> expected;
  for (const auto& o : w.extra_objects) {
    const auto ms = ref.Match(o);
    expected.insert(expected.end(), ms.begin(), ms.end());
  }

  EXPECT_EQ(testutil::Sorted(ToMatches(got)), testutil::Sorted(expected));
  EXPECT_EQ(report.session_drops, 0u);
  for (auto& s : stable) s.Release();
}

// A kBlock session whose consumer stopped pulling parks worker threads on
// its full queue; Stop() must still drain and join (deliveries degrade to
// drops while draining), and the drops must be visible in the report.
TEST(DeliveryStopDrainTest, BlockedConsumerCannotWedgeStop) {
  auto w = testutil::MakeWorkload(1209, 600, 150);
  PS2StreamOptions opts;
  opts.partition.num_workers = 2;
  opts.engine.num_dispatchers = 1;
  PS2Stream ps2(opts);
  ps2.Bootstrap(w.sample);

  SessionOptions sopts;
  sopts.queue_capacity = 2;  // fills almost immediately
  sopts.backpressure = BackpressurePolicy::kBlock;
  auto session = ps2.OpenSession(sopts);
  std::vector<Subscription> subs;
  for (const auto& q : w.sample.inserts) {
    auto sub = ps2.Subscribe(session, q);
    ASSERT_TRUE(sub.ok());
    subs.push_back(std::move(*sub));
  }
  ps2.Start();
  for (const auto& o : w.extra_objects) {
    ASSERT_TRUE(ps2.Post(o).ok());
  }
  // Nobody consumes. Stop() must return regardless.
  const RunReport report = ps2.Stop();
  EXPECT_EQ(report.session_deliveries,
            session->stats().delivered);
  // The workload produces far more matches than 2 queue slots.
  EXPECT_GT(report.session_drops, 0u);
  EXPECT_LE(session->pending(), sopts.queue_capacity);
  for (auto& s : subs) s.Release();
}

// The virtual-time twin: RunSimulation with a delivery router wired in
// reports simulated publish->deliver latency and delivers the cluster's
// exact per-object-filtered match count to the session.
TEST(DeliverySimEngineTest, SimDeliversWithVirtualTimestamps) {
  auto w = testutil::MakeWorkload(1211, 700, 200);
  PartitionConfig cfg;
  cfg.num_workers = 3;
  cfg.grid_k = 4;
  const PartitionPlan plan =
      MakePartitioner("hybrid")->Build(w.sample, w.vocab, cfg);

  DeliveryRouter router;
  SessionOptions sopts;
  sopts.queue_capacity = 1 << 20;
  auto session = std::make_shared<SubscriberSession>(sopts);
  router.RegisterSession(session);

  std::vector<StreamTuple> input;
  for (const auto& q : w.sample.inserts) {
    input.push_back(StreamTuple::OfInsert(q));
    router.Route(q.id, session);
  }
  for (const auto& o : w.extra_objects) {
    input.push_back(StreamTuple::OfObject(o));
  }

  Cluster cluster(plan, &w.vocab);
  SimOptions sim;
  sim.enable_adjust = false;
  sim.delivery = &router;
  const SimReport report = RunSimulation(cluster, input, sim);

  const SessionStats stats = session->stats();
  ASSERT_GT(report.matches_delivered, 0u);
  EXPECT_EQ(stats.delivered, report.matches_delivered);
  EXPECT_EQ(stats.latency.count(), report.matches_delivered);
  // Virtual stamps: deliver >= publish for every delivery (service time is
  // positive), and the histogram saw only non-negative latencies.
  Delivery d;
  ASSERT_TRUE(session->Poll(&d));
  EXPECT_GE(d.deliver_us, d.publish_us);
}

}  // namespace
}  // namespace ps2
