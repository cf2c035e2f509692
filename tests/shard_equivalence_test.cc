// Randomized multi-shard equivalence: for interleaved
// subscribe/publish/unsubscribe schedules — with cross-shard migrations and
// per-shard kill/restore thrown in — an N-shard fabric must deliver exactly
// the match set of the single-engine facade, which must equal the
// brute-force reference. Synchronous mode keeps every run deterministic, so
// the comparison is exact set equality, not statistics.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "index/reference_matcher.h"
#include "runtime/ps2stream.h"
#include "shard/fault_transport.h"
#include "test_util.h"

namespace ps2 {
namespace {

struct Action {
  enum Kind { kSubscribe, kUnsubscribe, kPublish } kind;
  STSQuery query;              // kSubscribe
  QueryId query_id = 0;        // kUnsubscribe
  SpatioTextualObject object;  // kPublish
};

std::vector<Action> MakeActions(const testutil::TestWorkload& w,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Action> actions;
  std::vector<QueryId> subscribed;
  size_t qi = 0, oi = 0;
  while (qi < w.sample.inserts.size() || oi < w.extra_objects.size()) {
    const double dice = rng.NextDouble();
    if (dice < 0.45 && qi < w.sample.inserts.size()) {
      Action a;
      a.kind = Action::kSubscribe;
      a.query = w.sample.inserts[qi++];
      subscribed.push_back(a.query.id);
      actions.push_back(std::move(a));
    } else if (dice < 0.55 && !subscribed.empty()) {
      Action a;
      a.kind = Action::kUnsubscribe;
      const size_t pick = rng.NextBelow(subscribed.size());
      a.query_id = subscribed[pick];
      subscribed.erase(subscribed.begin() + pick);
      actions.push_back(std::move(a));
    } else if (oi < w.extra_objects.size()) {
      Action a;
      a.kind = Action::kPublish;
      a.object = w.extra_objects[oi++];
      actions.push_back(std::move(a));
    }
  }
  return actions;
}

// Ground truth: the reference matcher applied in lockstep with the schedule.
std::vector<MatchResult> ReferenceRun(const std::vector<Action>& actions) {
  ReferenceMatcher ref;
  std::vector<MatchResult> out;
  for (const Action& a : actions) {
    switch (a.kind) {
      case Action::kSubscribe:
        ref.Insert(a.query);
        break;
      case Action::kUnsubscribe:
        ref.Delete(a.query_id);
        break;
      case Action::kPublish:
        for (const MatchResult& m : ref.Match(a.object)) out.push_back(m);
        break;
    }
  }
  return testutil::Sorted(std::move(out));
}

PS2StreamOptions Options(int num_shards) {
  PS2StreamOptions options;
  options.sharding.num_shards = num_shards;
  options.partition.num_workers = 2;
  return options;
}

void SubscribeRaw(PS2Stream& ps2, const std::shared_ptr<SubscriberSession>& s,
                  const STSQuery& q) {
  auto sub = ps2.Subscribe(s, q);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  sub->Release();
}

void Drain(const std::shared_ptr<SubscriberSession>& session,
           std::vector<MatchResult>* out) {
  Delivery d;
  while (session->Poll(&d)) {
    out->push_back(MatchResult{d.query_id, d.object_id});
  }
}

// Applies actions[begin, end) to `ps2`, collecting deliveries. When
// `migrate_every` > 0 (multi-shard only), every that-many publishes the
// just-hit cell is migrated to the next shard — the most adversarial
// moment, since its queries and traffic are live.
void RunSchedule(PS2Stream& ps2,
                 const std::shared_ptr<SubscriberSession>& session,
                 const std::vector<Action>& actions, size_t begin, size_t end,
                 size_t migrate_every, std::vector<MatchResult>* delivered) {
  size_t posts = 0;
  for (size_t i = begin; i < end; ++i) {
    const Action& a = actions[i];
    switch (a.kind) {
      case Action::kSubscribe:
        SubscribeRaw(ps2, session, a.query);
        break;
      case Action::kUnsubscribe:
        ASSERT_TRUE(ps2.Cancel(a.query_id).ok());
        break;
      case Action::kPublish: {
        ASSERT_TRUE(ps2.Post(a.object).ok());
        ++posts;
        if (migrate_every > 0 && posts % migrate_every == 0) {
          ShardedEngine& fabric = *ps2.fabric();
          const CellId cell = fabric.shard_cluster(0).router().plan().grid.CellOf(
              a.object.loc);
          const ShardId from = fabric.shard_map()->OwnerOf(cell);
          fabric.MigrateCell(cell, from,
                             (from + 1) % fabric.num_shards());
        }
        break;
      }
    }
    Drain(session, delivered);
  }
  Drain(session, delivered);
}

// Started-mode variant of RunSchedule: mutations apply while the engines
// are stopped, and each run of consecutive publishes streams through the
// started engines and is drained by Stop(). Mutation-vs-object races are
// what the segmentation removes; within a run, objects match independently.
void RunStartedSegments(PS2Stream& ps2,
                        const std::shared_ptr<SubscriberSession>& session,
                        const std::vector<Action>& actions,
                        std::vector<MatchResult>* delivered) {
  size_t i = 0;
  while (i < actions.size()) {
    if (actions[i].kind == Action::kPublish) {
      ps2.Start();
      while (i < actions.size() && actions[i].kind == Action::kPublish) {
        ASSERT_TRUE(ps2.Post(actions[i].object).ok());
        ++i;
      }
      ps2.Stop();
    } else {
      RunSchedule(ps2, session, actions, i, i + 1, /*migrate_every=*/0,
                  delivered);
      ++i;
    }
    Drain(session, delivered);
  }
  Drain(session, delivered);
}

TEST(ShardEquivalenceTest, RandomizedSchedulesMatchAtEveryShardCount) {
  for (const uint64_t seed : {31u, 32u, 33u}) {
    const testutil::TestWorkload w = testutil::MakeWorkload(seed, 700, 220);
    const std::vector<Action> actions = MakeActions(w, seed * 1000 + 7);
    const std::vector<MatchResult> expected = ReferenceRun(actions);
    ASSERT_FALSE(expected.empty());

    for (const int shards : {1, 2, 4}) {
      PS2Stream ps2(Options(shards));
      ps2.Bootstrap(w.sample);
      SessionOptions so;
      so.queue_capacity = 1 << 16;
      auto session = ps2.OpenSession(so);
      std::vector<MatchResult> delivered;
      RunSchedule(ps2, session, actions, 0, actions.size(),
                  /*migrate_every=*/shards > 1 ? 37 : 0, &delivered);
      EXPECT_EQ(testutil::Sorted(std::move(delivered)), expected)
          << "seed " << seed << ", " << shards << " shard(s)";
      if (shards > 1) {
        EXPECT_GT(ps2.fabric()->cells_migrated(), 0u)
            << "schedule never exercised migration";
        EXPECT_EQ(ps2.fabric()->decode_errors(), 0u);
      }
    }
  }

  // The same schedule through the started engines: publishes are submitted
  // to the threaded engine (or every shard's), mutations apply stopped.
  const uint64_t seed = 31;
  const testutil::TestWorkload w = testutil::MakeWorkload(seed, 700, 220);
  const std::vector<Action> actions = MakeActions(w, seed * 1000 + 7);
  const std::vector<MatchResult> expected = ReferenceRun(actions);
  for (const int shards : {1, 2, 4}) {
    PS2Stream ps2(Options(shards));
    ps2.Bootstrap(w.sample);
    SessionOptions so;
    so.queue_capacity = 1 << 16;
    auto session = ps2.OpenSession(so);
    std::vector<MatchResult> delivered;
    RunStartedSegments(ps2, session, actions, &delivered);
    EXPECT_EQ(testutil::Sorted(std::move(delivered)), expected)
        << "started, seed " << seed << ", " << shards << " shard(s)";
  }
}

// No delivery may appear twice: migration copies queries across shards, and
// the ownership handoff must never let both copies fire for one object.
TEST(ShardEquivalenceTest, MigrationNeverDuplicatesADelivery) {
  const testutil::TestWorkload w = testutil::MakeWorkload(44, 600, 200);
  const std::vector<Action> actions = MakeActions(w, 4407);
  PS2Stream ps2(Options(4));
  ps2.Bootstrap(w.sample);
  SessionOptions so;
  so.queue_capacity = 1 << 16;
  auto session = ps2.OpenSession(so);
  std::vector<MatchResult> delivered;
  RunSchedule(ps2, session, actions, 0, actions.size(), /*migrate_every=*/11,
              &delivered);
  std::unordered_set<std::string> seen;
  for (const MatchResult& m : delivered) {
    const std::string key =
        std::to_string(m.query_id) + ":" + std::to_string(m.object_id);
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate delivery q" << m.query_id << " o" << m.object_id;
  }
}

// The reliable links must hide an adversarial transport completely: with
// frames randomly dropped, held back (reordered), and duplicated, every
// shard count still delivers exactly the reference match set — retries
// recover the losses, the ordered control link undoes the reordering, and
// sequence dedup plus the front window kill the duplicates.
TEST(ShardEquivalenceTest, FaultInjectedSchedulesStayExact) {
  for (const uint64_t seed : {61u, 62u}) {
    const testutil::TestWorkload w = testutil::MakeWorkload(seed, 500, 160);
    const std::vector<Action> actions = MakeActions(w, seed * 100 + 3);
    const std::vector<MatchResult> expected = ReferenceRun(actions);
    ASSERT_FALSE(expected.empty());

    for (const int shards : {1, 2, 4}) {
      FaultScheduleConfig fc;
      fc.seed = seed * 10 + static_cast<uint64_t>(shards);
      fc.drop_rate = 0.05;
      fc.delay_rate = 0.10;
      fc.max_delay_sends = 4;
      fc.duplicate_rate = 0.05;
      // Outlives the stream: the fabric holds a borrowed pointer.
      FaultInjectingTransport fault(fc);
      PS2StreamOptions options = Options(shards);
      options.sharding.transport = &fault;
      PS2Stream ps2(options);
      ps2.Bootstrap(w.sample);
      SessionOptions so;
      so.queue_capacity = 1 << 16;
      auto session = ps2.OpenSession(so);
      std::vector<MatchResult> delivered;
      RunSchedule(ps2, session, actions, 0, actions.size(),
                  /*migrate_every=*/shards > 1 ? 41 : 0, &delivered);
      EXPECT_EQ(testutil::Sorted(std::move(delivered)), expected)
          << "seed " << seed << ", " << shards << " shard(s)";
      if (shards > 1) {
        const FaultCounters c = fault.counters();
        EXPECT_GT(c.dropped + c.delayed + c.duplicated, 0u)
            << "the schedule never actually injected a fault";
        const FabricFaultStats fs = ps2.fabric()->fault_stats();
        EXPECT_GT(fs.frame_retries, 0u)
            << "drops never forced a retransmission";
        EXPECT_EQ(ps2.fabric()->decode_errors(), 0u);
        EXPECT_FALSE(ps2.fabric()->degraded())
            << "transient faults must never quarantine a shard";
      }
    }
  }
}

// Killing a live shard mid-schedule (non-durable fleet): the supervisor
// detects the missed acks on the next frame, restarts the shard from a
// registry resync, and replays the unacked frames — the final match set is
// still byte-exact against the reference.
TEST(ShardEquivalenceTest, ShardKillMidScheduleStaysExact) {
  const testutil::TestWorkload w = testutil::MakeWorkload(71, 500, 160);
  const std::vector<Action> actions = MakeActions(w, 7103);
  const std::vector<MatchResult> expected = ReferenceRun(actions);
  ASSERT_FALSE(expected.empty());

  PS2Stream ps2(Options(4));
  ps2.Bootstrap(w.sample);
  SessionOptions so;
  so.queue_capacity = 1 << 16;
  auto session = ps2.OpenSession(so);
  std::vector<MatchResult> delivered;
  const size_t half = actions.size() / 2;
  RunSchedule(ps2, session, actions, 0, half, /*migrate_every=*/0,
              &delivered);
  ps2.fabric()->KillShard(1);
  RunSchedule(ps2, session, actions, half, actions.size(),
              /*migrate_every=*/0, &delivered);
  EXPECT_EQ(testutil::Sorted(std::move(delivered)), expected);
  EXPECT_GE(ps2.fabric()->shard_restart_count(1), 1u);
  EXPECT_FALSE(ps2.fabric()->degraded());
  EXPECT_GT(ps2.fabric()->fault_stats().shard_restarts, 0u);
}

// Same drill on a durable fleet: the restart recovers the shard from its
// own WAL+checkpoint directory instead of a registry resync, and the match
// set stays exact.
TEST(ShardEquivalenceTest, DurableShardKillMidScheduleStaysExact) {
  const testutil::TestWorkload w = testutil::MakeWorkload(72, 500, 160);
  const std::vector<Action> actions = MakeActions(w, 7207);
  const std::vector<MatchResult> expected = ReferenceRun(actions);
  ASSERT_FALSE(expected.empty());
  const std::string dir =
      ::testing::TempDir() + "/ps2_shard_kill_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);

  {
    PS2StreamOptions options = Options(4);
    options.durability.enabled = true;
    options.durability.dir = dir;
    PS2Stream ps2(options);
    ps2.Bootstrap(w.sample);
    ASSERT_TRUE(ps2.durable());
    SessionOptions so;
    so.queue_capacity = 1 << 16;
    auto session = ps2.OpenSession(so);
    std::vector<MatchResult> delivered;
    const size_t half = actions.size() / 2;
    RunSchedule(ps2, session, actions, 0, half, /*migrate_every=*/0,
                &delivered);
    ps2.fabric()->KillShard(2);
    RunSchedule(ps2, session, actions, half, actions.size(),
                /*migrate_every=*/0, &delivered);
    EXPECT_EQ(testutil::Sorted(std::move(delivered)), expected);
    EXPECT_GE(ps2.fabric()->shard_restart_count(2), 1u);
    EXPECT_FALSE(ps2.fabric()->degraded());
  }
  std::filesystem::remove_all(dir);
}

// The durable schedule: run half, kill the whole fleet, restore from the
// fabric root, run the rest. The union of deliveries must equal the
// reference over the full schedule (objects are not replayed, so nothing is
// delivered twice; subscriptions and the migrated SHARDMAP come back
// exactly).
TEST(ShardEquivalenceTest, KillAndRestoreMidScheduleStaysEquivalent) {
  const testutil::TestWorkload w = testutil::MakeWorkload(55, 600, 200);
  const std::vector<Action> actions = MakeActions(w, 5501);
  const std::vector<MatchResult> expected = ReferenceRun(actions);
  const std::string dir =
      ::testing::TempDir() + "/ps2_shard_equiv_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);

  const size_t half = actions.size() / 2;
  std::vector<MatchResult> delivered;
  {
    PS2StreamOptions options = Options(4);
    options.durability.enabled = true;
    options.durability.dir = dir;
    PS2Stream ps2(options);
    ps2.Bootstrap(w.sample);
    ASSERT_TRUE(ps2.durable());
    SessionOptions so;
    so.queue_capacity = 1 << 16;
    auto session = ps2.OpenSession(so);
    RunSchedule(ps2, session, actions, 0, half, /*migrate_every=*/23,
                &delivered);
    ps2.Kill();
  }
  {
    PS2Stream ps2(Options(1));  // shard count comes from the SHARDMAP
    ASSERT_TRUE(ps2.Restore(dir));
    ASSERT_EQ(ps2.fabric()->num_shards(), 4);
    SessionOptions so;
    so.queue_capacity = 1 << 16;
    auto session = ps2.OpenSession(so);
    for (const auto& [id, q] : ps2.subscriptions()) {
      ps2.delivery().Route(id, session);
    }
    RunSchedule(ps2, session, actions, half, actions.size(),
                /*migrate_every=*/29, &delivered);
  }
  EXPECT_EQ(testutil::Sorted(std::move(delivered)), expected);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ps2
