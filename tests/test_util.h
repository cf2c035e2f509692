#ifndef PS2_TESTS_TEST_UTIL_H_
#define PS2_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/delivery_sink.h"
#include "common/dedup_window.h"
#include "common/rng.h"
#include "core/workload_stats.h"
#include "index/reference_matcher.h"
#include "text/vocabulary.h"

namespace ps2 {
namespace testutil {

// A small self-contained workload with clustered locations and skewed term
// frequencies — enough structure for every partitioner to produce a
// non-trivial plan, small enough for brute-force verification.
struct TestWorkload {
  Vocabulary vocab;
  std::vector<TermId> terms;
  WorkloadSample sample;
  std::vector<SpatioTextualObject> extra_objects;  // not in the sample
};

inline TestWorkload MakeWorkload(uint64_t seed, size_t num_objects = 1500,
                                 size_t num_queries = 400,
                                 size_t num_terms = 60) {
  TestWorkload w;
  Rng rng(seed);
  for (size_t i = 0; i < num_terms; ++i) {
    const TermId t = w.vocab.Intern("t" + std::to_string(i));
    w.terms.push_back(t);
  }
  ZipfSampler zipf(num_terms, 1.0);
  // Two "cities" with distinct topic halves, plus uniform background, so
  // text and space structure both exist.
  const Point cities[2] = {{20, 20}, {80, 70}};
  auto sample_loc = [&](Rng& r) {
    const double dice = r.NextDouble();
    if (dice < 0.4) {
      return Point{r.NextGaussian(cities[0].x, 6), r.NextGaussian(cities[0].y, 6)};
    }
    if (dice < 0.8) {
      return Point{r.NextGaussian(cities[1].x, 6), r.NextGaussian(cities[1].y, 6)};
    }
    return Point{r.NextUniform(0, 100), r.NextUniform(0, 100)};
  };
  auto sample_term = [&](Point loc, Rng& r) -> TermId {
    size_t rank = zipf.Sample(r);
    // City topics: near city 0, shift toward the first half of the
    // vocabulary; near city 1, the second half.
    if (Distance(loc, cities[1]) < 20 && r.NextBernoulli(0.5)) {
      rank = num_terms / 2 + rank % (num_terms / 2);
    }
    return w.terms[std::min(rank, num_terms - 1)];
  };
  auto make_object = [&](ObjectId id) {
    const Point loc = sample_loc(rng);
    std::vector<TermId> ts;
    const int k = 1 + rng.NextBelow(5);
    for (int i = 0; i < k; ++i) ts.push_back(sample_term(loc, rng));
    auto o = SpatioTextualObject::FromTerms(id, loc, ts);
    for (const TermId t : o.terms) w.vocab.AddCount(t);
    return o;
  };
  for (size_t i = 0; i < num_objects; ++i) {
    w.sample.objects.push_back(make_object(i + 1));
  }
  for (size_t i = 0; i < num_objects / 2; ++i) {
    w.extra_objects.push_back(make_object(num_objects + i + 1));
  }
  for (size_t i = 0; i < num_queries; ++i) {
    const Point c = sample_loc(rng);
    std::vector<TermId> ts;
    const int k = 1 + rng.NextBelow(3);
    for (int j = 0; j < k; ++j) ts.push_back(sample_term(c, rng));
    std::sort(ts.begin(), ts.end());
    ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
    STSQuery q;
    q.id = i + 1;
    q.expr = rng.NextBernoulli(0.3) ? BoolExpr::Or(ts) : BoolExpr::And(ts);
    q.expr.ChooseRouting(w.vocab);
    q.region = Rect::Centered(c, rng.NextUniform(2, 25),
                              rng.NextUniform(2, 25));
    w.sample.inserts.push_back(std::move(q));
  }
  return w;
}

inline std::vector<MatchResult> Sorted(std::vector<MatchResult> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// A delivery sink that keeps every match an engine hands it, behind the
// same kind of (query, object) window the production sinks filter through.
// Thread-safe: worker threads deliver concurrently.
class CollectingSink final : public DeliverySink {
 public:
  bool AcceptFresh(QueryId query_id, ObjectId object_id) override {
    return dedup_.AcceptFresh(query_id, object_id);
  }
  void Deliver(const MatchResult& m, int64_t /*publish_us*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    matches_.push_back(m);
  }
  void DeliverBatch(const Delivery* pending, size_t n) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      MatchResult m;
      m.query_id = pending[i].query_id;
      m.object_id = pending[i].object_id;
      matches_.push_back(m);
    }
  }

  // Every match delivered so far, in delivery order.
  std::vector<MatchResult> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(matches_, {});
  }

 private:
  ShardedDedupWindow dedup_;
  std::mutex mu_;
  std::vector<MatchResult> matches_;
};

}  // namespace testutil
}  // namespace ps2

#endif  // PS2_TESTS_TEST_UTIL_H_
