#ifndef PS2_CORE_QUERY_H_
#define PS2_CORE_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/geo.h"
#include "core/object.h"
#include "text/bool_expr.h"
#include "text/similarity.h"

namespace ps2 {

using QueryId = uint64_t;

// Subscription classes. kBoolean is the paper's strict predicate (CNF over
// terms + region containment). kSimilarity relaxes the text side to a
// binary-weight cosine score against the subscription's term set, matching
// when score >= tau. kTopK continuously maintains the k best-scoring live
// objects per query (admission happens centrally, not at the matcher; the
// matcher emits every positive-score candidate).
enum class SubscriptionClass : uint8_t {
  kBoolean = 0,
  kSimilarity = 1,
  kTopK = 2,
};

// A Spatio-Textual Subscription (STS) query q = <K, R> (Definition in
// Section III-A): a boolean keyword expression over terms plus a rectangular
// region of interest. An object matches iff its location lies in `region`
// and its terms satisfy `expr`.
//
// Scored classes (kSimilarity/kTopK) reuse `expr` as their term-set store:
// the terms sit in a single OR clause, so RoutingTerms() returns the whole
// set and routing stays complete (a positive cosine score requires at least
// one shared term; tau = 0 is rejected at the API boundary).
struct STSQuery {
  QueryId id = 0;
  BoolExpr expr;
  Rect region;
  SubscriptionClass cls = SubscriptionClass::kBoolean;
  double tau = 0.0;  // kSimilarity: match threshold in (0, 1]
  uint32_t k = 0;    // kTopK: result-heap bound, >= 1

  bool scored() const { return cls != SubscriptionClass::kBoolean; }

  // The scored classes' term set: the single OR clause `expr` stores
  // (sorted, deduplicated by BoolExpr::Cnf). Only meaningful when scored().
  const std::vector<TermId>& ScoredTerms() const { return expr.clauses()[0]; }

  // Candidate test, ignoring top-k admission: kBoolean is the strict
  // predicate, kSimilarity is region + score >= tau, kTopK is region + any
  // positive score (admission into the bounded heap is centralized
  // downstream). Inline: this sits on the per-posting match path.
  bool Matches(const SpatioTextualObject& o) const {
    if (cls == SubscriptionClass::kBoolean) {
      return region.Contains(o.loc) && expr.Matches(o.terms);
    }
    double score = 0.0;
    return Evaluate(o, &score);
  }

  // Same test, also reporting the cosine score (0 for kBoolean).
  bool Evaluate(const SpatioTextualObject& o, double* score) const {
    *score = 0.0;
    if (!region.Contains(o.loc)) return false;
    switch (cls) {
      case SubscriptionClass::kBoolean:
        return expr.Matches(o.terms);
      case SubscriptionClass::kSimilarity:
        *score = BinaryCosineSimilarity(o.terms, ScoredTerms());
        return *score >= tau;
      case SubscriptionClass::kTopK:
        *score = BinaryCosineSimilarity(o.terms, ScoredTerms());
        return *score > 0.0;
    }
    return false;
  }

  // Size in bytes used for migration cost accounting (Sg in Definition 4 is
  // "the total size of the queries in cell g").
  size_t MemoryBytes() const {
    return sizeof(STSQuery) + expr.TermSlots() * sizeof(TermId) +
           expr.clauses().size() * sizeof(std::vector<TermId>);
  }
};

// The three tuple kinds flowing through the system: publish a spatio-textual
// object, insert a subscription, delete a subscription (Section III).
enum class TupleKind : uint8_t {
  kObject = 0,
  kQueryInsert = 1,
  kQueryDelete = 2,
};

// One element of the merged input stream. Exactly one of {object, query} is
// meaningful depending on `kind`; deletions carry the full query (the paper
// notes "the request contains complete information of the STS query") so
// dispatchers can route them like insertions.
struct StreamTuple {
  TupleKind kind = TupleKind::kObject;
  SpatioTextualObject object;
  STSQuery query;

  // Event-time in microseconds since the stream epoch.
  int64_t event_time_us = 0;

  static StreamTuple OfObject(SpatioTextualObject o) {
    StreamTuple t;
    t.kind = TupleKind::kObject;
    t.event_time_us = o.timestamp_us;
    t.object = std::move(o);
    return t;
  }
  static StreamTuple OfInsert(STSQuery q, int64_t time_us = 0) {
    StreamTuple t;
    t.kind = TupleKind::kQueryInsert;
    t.query = std::move(q);
    t.event_time_us = time_us;
    return t;
  }
  static StreamTuple OfDelete(STSQuery q, int64_t time_us = 0) {
    StreamTuple t;
    t.kind = TupleKind::kQueryDelete;
    t.query = std::move(q);
    t.event_time_us = time_us;
    return t;
  }
};

// A (query, object) match produced by a worker and deduplicated (per object
// in Cluster, per window in the delivery sink) before it reaches the
// subscriber. `score`/`expire_us` ride along for the scored subscription
// classes (0 for boolean matches; expire 0 means "never expires") but
// identity and ordering stay id-only — the same pair produced by two paths
// is one match regardless of stamps.
struct MatchResult {
  QueryId query_id = 0;
  ObjectId object_id = 0;
  double score = 0.0;
  int64_t expire_us = 0;

  friend bool operator==(const MatchResult& a, const MatchResult& b) {
    return a.query_id == b.query_id && a.object_id == b.object_id;
  }
  friend bool operator<(const MatchResult& a, const MatchResult& b) {
    if (a.query_id != b.query_id) return a.query_id < b.query_id;
    return a.object_id < b.object_id;
  }
};

}  // namespace ps2

#endif  // PS2_CORE_QUERY_H_
