#include "runtime/ps2stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "subscribe/spec.h"
#include "test_util.h"
#include "workload/stream_gen.h"
#include "workload/synthetic_corpus.h"

namespace ps2 {
namespace {

TEST(PS2StreamTest, QuickstartFlow) {
  PS2StreamOptions opts;
  opts.partition.num_workers = 4;
  PS2Stream ps2(opts);

  // Bootstrap from a tiny sample.
  auto w = testutil::MakeWorkload(801, 500, 100);
  WorkloadSample sample = w.sample;
  // Re-express the sample in the facade's own vocabulary via text terms;
  // simplest path: bootstrap with locations only (partitioning still
  // works; vocabulary fills as traffic arrives).
  ps2.Bootstrap(sample);
  ASSERT_TRUE(ps2.bootstrapped());

  auto session = ps2.OpenSession();
  auto sub = ps2.Subscribe(session, "pizza AND downtown", Rect(0, 0, 50, 50));
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(ps2.num_subscriptions(), 1u);

  ASSERT_TRUE(ps2.Post(Point{10, 10}, "best pizza in downtown!").ok());
  Delivery d;
  ASSERT_TRUE(session->Poll(&d));
  EXPECT_EQ(d.query_id, sub->id());
  EXPECT_FALSE(session->Poll(&d));

  // Outside the region: no match.
  ASSERT_TRUE(ps2.Post(Point{90, 90}, "pizza downtown").ok());
  EXPECT_FALSE(session->Poll(&d));
  // Missing a keyword: no match.
  ASSERT_TRUE(ps2.Post(Point{10, 10}, "pizza is great").ok());
  EXPECT_FALSE(session->Poll(&d));

  ASSERT_TRUE(ps2.Cancel(sub->Release()).ok());
  EXPECT_EQ(ps2.num_subscriptions(), 0u);
  ASSERT_TRUE(ps2.Post(Point{10, 10}, "pizza downtown").ok());
  EXPECT_FALSE(session->Poll(&d));
}

TEST(PS2StreamTest, InvalidExpressionRejected) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  const auto sub = ps2.Subscribe(nullptr, "AND AND", Rect(0, 0, 1, 1));
  EXPECT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ps2.num_subscriptions(), 0u);
}

TEST(PS2StreamTest, OrExpressionMatchesEitherKeyword) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  auto session = ps2.OpenSession();
  auto sub = ps2.Subscribe(session, "fire OR smoke", Rect(0, 0, 1, 1));
  ASSERT_TRUE(sub.ok());
  Delivery d;
  ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "I smell smoke").ok());
  EXPECT_TRUE(session->Poll(&d));
  ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "forest fire nearby").ok());
  EXPECT_TRUE(session->Poll(&d));
  ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "all clear").ok());
  EXPECT_FALSE(session->Poll(&d));
}

TEST(PS2StreamTest, BootstrapWithRealSampleUsesPartitioner) {
  Vocabulary scratch;
  SyntheticCorpus corpus(CorpusConfig::UkPreset(), &scratch);
  // Build a sample stream, then bootstrap a hybrid-partitioned service.
  PS2StreamOptions opts;
  opts.partitioner = "hybrid";
  opts.partition.num_workers = 4;
  PS2Stream ps2(opts);
  WorkloadSample sample;
  Rng rng(5);
  for (int i = 0; i < 800; ++i) {
    // Objects via the facade vocabulary.
    const Point loc = corpus.SampleLocation(rng);
    sample.objects.push_back(SpatioTextualObject::FromTerms(
        i + 1, loc,
        {ps2.vocabulary().Intern("w" + std::to_string(rng.NextBelow(50)))}));
  }
  for (int i = 0; i < 200; ++i) {
    STSQuery q;
    q.id = i + 1;
    q.expr = BoolExpr::And(
        {ps2.vocabulary().Intern("w" + std::to_string(rng.NextBelow(50)))});
    q.region = Rect::Centered(corpus.SampleLocation(rng), 1.0, 1.0);
    sample.inserts.push_back(q);
  }
  ps2.Bootstrap(sample);
  EXPECT_EQ(ps2.cluster().num_workers(), 4);
}

TEST(PS2StreamTest, AutoAdjustTriggersOnImbalance) {
  PS2StreamOptions opts;
  opts.partitioner = "unknown-so-uniform";  // uniform cell assignment
  opts.partition.num_workers = 4;
  opts.auto_adjust = true;
  opts.adjust_check_interval = 500;
  opts.adjust.sigma = 1.2;
  PS2Stream ps2(opts);
  // Bootstrap over a known extent.
  WorkloadSample seed;
  seed.objects.push_back(
      SpatioTextualObject::FromTerms(1, Point{0, 0}, {0}));
  seed.objects.push_back(
      SpatioTextualObject::FromTerms(2, Point{100, 100}, {0}));
  ps2.Bootstrap(seed);
  // Hammer one tiny corner so one worker absorbs everything.
  const TermId hot = ps2.vocabulary().Intern("hot");
  (void)hot;
  for (int i = 0; i < 50; ++i) {
    auto sub = ps2.Subscribe(nullptr, "hot", Rect(0, 0, 2, 2));
    ASSERT_TRUE(sub.ok());
    sub->Release();  // keep the subscription live for the whole run
  }
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(ps2.Post(Point{1, 1}, "hot stuff").ok());
  }
  EXPECT_FALSE(ps2.adjustments().empty());
}

// A text post builds the same object whatever the mode: tokens the
// vocabulary has never seen are dropped everywhere, so a scored query's
// cosine norm, and with it the delivered set, cannot depend on the mode.
TEST(PS2StreamTest, TextPostBuildsTheSameObjectInEveryMode) {
  struct Mode {
    const char* name;
    int num_shards;
    bool started;
  };
  const Mode kModes[] = {
      {"sync", 1, false}, {"threaded", 1, true}, {"fabric-2", 2, false}};
  const testutil::TestWorkload workload =
      testutil::MakeWorkload(/*seed=*/23, /*num_objects=*/300,
                             /*num_queries=*/60, /*num_terms=*/30);
  struct Seen {
    QueryId query;
    ObjectId object;
    double score;
  };
  std::vector<std::vector<Seen>> per_mode;
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    PS2StreamOptions options;
    options.partition.num_workers = 2;
    options.sharding.num_shards = mode.num_shards;
    PS2Stream ps2(options);
    ps2.Bootstrap(workload.sample);
    auto session = ps2.OpenSession();
    const Rect region(0, 0, 100, 100);
    auto strict = ps2.Subscribe(
        session, SubscriptionSpec::Similarity({"fire", "smoke"}, 0.9, region));
    auto loose = ps2.Subscribe(
        session, SubscriptionSpec::Similarity({"fire", "smoke"}, 0.5, region));
    ASSERT_TRUE(strict.ok());
    ASSERT_TRUE(loose.ok());
    if (mode.started) ps2.Start();
    // "ash" is named by no subscription and unknown to the vocabulary.
    ASSERT_TRUE(ps2.Post(Point{50, 50}, "fire smoke ash").ok());
    ASSERT_TRUE(ps2.Post(Point{50, 50}, "fire ash").ok());
    if (mode.started) ps2.Stop();
    std::vector<Seen> seen;
    Delivery d;
    while (session->Poll(&d)) {
      seen.push_back({d.query_id, d.object_id, d.score});
    }
    std::sort(seen.begin(), seen.end(), [](const Seen& x, const Seen& y) {
      return std::tie(x.object, x.query) < std::tie(y.object, y.query);
    });
    // {fire, smoke} scores 1 against both queries; {fire} scores 1/sqrt(2)
    // and reaches only the loose one.
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].query, strict->id());
    EXPECT_DOUBLE_EQ(seen[0].score, 1.0);
    EXPECT_EQ(seen[1].query, loose->id());
    EXPECT_DOUBLE_EQ(seen[1].score, 1.0);
    EXPECT_EQ(seen[2].query, loose->id());
    EXPECT_NEAR(seen[2].score, 1.0 / std::sqrt(2.0), 1e-12);
    per_mode.push_back(std::move(seen));
  }
  for (size_t m = 1; m < per_mode.size(); ++m) {
    ASSERT_EQ(per_mode[m].size(), per_mode[0].size()) << kModes[m].name;
    for (size_t i = 0; i < per_mode[m].size(); ++i) {
      EXPECT_EQ(per_mode[m][i].query, per_mode[0][i].query);
      EXPECT_EQ(per_mode[m][i].object, per_mode[0][i].object);
      EXPECT_DOUBLE_EQ(per_mode[m][i].score, per_mode[0][i].score);
    }
  }
}

// A query keeps the routing clause it was admitted with. Sync-mode posts
// recount the vocabulary until the admitted clause ("beta") is the
// costlier one; the update's delete and the cancel must still reach the
// worker that holds the query, or its stale copy keeps matching.
TEST(PS2StreamTest, RoutingClauseSurvivesCountDrift) {
  PS2StreamOptions options;
  options.partitioner = "frequency";
  options.partition.num_workers = 2;
  options.partition.grid_k = 2;
  PS2Stream ps2(options);
  Vocabulary& vocab = ps2.vocabulary();
  const TermId a = vocab.Intern("alpha");
  const TermId b = vocab.Intern("beta");
  // Counts a=5, b=3; the frequency partitioner gives each its own worker.
  WorkloadSample sample;
  for (int i = 0; i < 8; ++i) {
    const double xy = 10.0 * i / 7;
    sample.objects.push_back(SpatioTextualObject::FromTerms(
        i + 1, Point{xy, xy}, {i < 5 ? a : b}));
  }
  ps2.Bootstrap(sample);
  ASSERT_EQ(vocab.Count(a), 5u);
  ASSERT_EQ(vocab.Count(b), 3u);
  const TermRouter& router = *ps2.cluster().router().plan().cells[0].text;
  ASSERT_NE(router.Route(a), router.Route(b));
  const auto active = [&ps2] {
    size_t n = 0;
    for (int w = 0; w < ps2.cluster().num_workers(); ++w) {
      n += ps2.cluster().worker(w).NumActiveQueries();
    }
    return n;
  };
  const size_t before = active();

  auto session = ps2.OpenSession();
  auto moved = ps2.Subscribe(session, "alpha AND beta", Rect(6, 6, 10, 10));
  auto cancelled = ps2.Subscribe(session, "alpha AND beta", Rect(0, 0, 4, 4));
  ASSERT_TRUE(moved.ok());
  ASSERT_TRUE(cancelled.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ps2.Post(Point{5, 5}, "beta").ok());
  }
  ASSERT_GT(vocab.Count(b), vocab.Count(a));
  ASSERT_TRUE(ps2.UpdateSubscription(moved->id(), Rect(0, 6, 4, 10)).ok());
  ASSERT_TRUE(ps2.Cancel(cancelled->Release()).ok());

  // Nothing is left in the old regions...
  ASSERT_TRUE(ps2.Post(Point{8, 8}, "alpha beta").ok());
  ASSERT_TRUE(ps2.Post(Point{2, 2}, "alpha beta").ok());
  Delivery d;
  EXPECT_FALSE(session->Poll(&d)) << "ghost match of query " << d.query_id;
  // ...and the moved query matches once in its new one.
  ASSERT_TRUE(ps2.Post(Point{2, 8}, "alpha beta").ok());
  ASSERT_TRUE(session->Poll(&d));
  EXPECT_EQ(d.query_id, moved->id());
  EXPECT_FALSE(session->Poll(&d));

  ASSERT_TRUE(ps2.Cancel(moved->Release()).ok());
  EXPECT_EQ(active(), before);
}

// Subscribing expressions with fresh terms interns them on the facade
// thread while the started dispatchers route the previous inserts and the
// posts. Routing reads only the clause each query carries, so under TSan
// this must report nothing.
TEST(PS2StreamTest, StartedSubscribesWithFreshTermsWhilePostsRoute) {
  PS2StreamOptions options;
  options.partition.num_workers = 2;
  PS2Stream ps2(options);
  ps2.Bootstrap(testutil::MakeWorkload(/*seed=*/41, /*num_objects=*/300,
                                       /*num_queries=*/60, /*num_terms=*/30)
                    .sample);
  ps2.Start();
  auto session = ps2.OpenSession();
  constexpr int kRounds = 400;
  std::vector<Delivery> delivered;
  Delivery d;
  for (int i = 0; i < kRounds; ++i) {
    const std::string fresh = "fresh" + std::to_string(i);
    auto sub = ps2.Subscribe(session, fresh + " AND common",
                             Rect(0, 0, 100, 100));
    ASSERT_TRUE(sub.ok());
    sub->Release();
    ASSERT_TRUE(ps2.Post(Point{50, 50}, "common " + fresh).ok());
    while (session->Poll(&d)) delivered.push_back(d);
  }
  ps2.Stop();
  while (session->Poll(&d)) delivered.push_back(d);
  EXPECT_EQ(ps2.num_subscriptions(), static_cast<size_t>(kRounds));
  // Each post can match only the query subscribed just before it.
  std::vector<QueryId> ids;
  for (const Delivery& x : delivered) ids.push_back(x.query_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_LE(ids.size(), static_cast<size_t>(kRounds));
}

}  // namespace
}  // namespace ps2
