// ps2bench: the repository benchmark. Runs one seeded workload through the
// public PS2Stream facade as an open loop, checks the deliveries against the
// brute-force ReferenceMatcher, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run plus a standalone replay
// of the same inputs through each layer).
//
//   ps2bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--smoke] [--out DIR] [--result-file PATH]
//   ps2bench --list
//
// benchmark/run.sh builds this program and is the entry point; the workloads,
// the metrics and the layer each per-layer metric belongs to are described
// in benchmark/README.md. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/prctl.h>
#include <unistd.h>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/wait_strategy.h"
#include "dispatch/dispatcher.h"
#include "index/gi2.h"
#include "index/reference_matcher.h"
#include "persist/wal.h"
#include "runtime/ps2stream.h"
#include "shard/wire.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"
#include "workload/synthetic_corpus.h"

namespace ps2 {
namespace {

// ---- constants -------------------------------------------------------------

// BENCHMARK.json's run_seconds. Post counts below are frozen at this length
// and scale linearly with --seconds.
constexpr double kNominalSeconds = 12.0;
// Each paced phase (lo, hi) lasts this share of --seconds.
constexpr double kPacedShare = 0.3;
// Paced-phase latency percentiles are medians over windows of about this
// length, so a host stall of a few milliseconds moves one window, not the
// metric.
constexpr double kWindowSeconds = 0.25;
// setup_s is the median of complete set-ups: at least kSetupRepsMin, more
// while they add up to less than kSetupBudgetSeconds, at most kSetupRepsMax.
constexpr size_t kSetupRepsMin = 3;
constexpr size_t kSetupRepsMax = 7;
constexpr double kSetupBudgetSeconds = 4.0;
// The measured phases run as this many interleaved rounds (see BuildPlan);
// rates are the median round's, latencies the median window's.
constexpr int kRounds = 5;
// --smoke runs every size and duration at this scale.
constexpr double kSmokeScale = 0.05;
constexpr size_t kPoolMax = 400000;
constexpr size_t kOracleSample = 256;
// Event time advances by this much per post (a nominal 40k posts/s clock),
// so TTL expiry is a function of the inputs, not of wall time.
constexpr int64_t kEventTickUs = 25;
// The generator sleeps until this long before a due time, then spins. A
// sleeping vCPU can take milliseconds to be woken on a busy host, so the
// generator only sleeps through gaps longer than this; at every paced rate
// the benchmark uses, it spins.
constexpr int64_t kSpinNs = 1000000;
// mixed_churn issues one mutation per this many posts; the posts-only
// workloads issue one probe mutation per kProbeEvery posts in paced phases,
// so mutation latency is measured on every workload.
constexpr size_t kChurnEvery = 5;
constexpr size_t kProbeEvery = 64;
// Per-layer replay bounds.
constexpr size_t kReplayPosts = 20000;
constexpr size_t kReplayWalStanding = 4096;
constexpr size_t kReplayTeardown = 2000;
// Live spans and replay spans whose request id is a multiple of this are
// written to the trace file (all of them feed the summary).
constexpr uint64_t kTraceFileSample = 64;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// ---- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  bool uk;          // corpus preset: UK (compact, dense) or US (wide)
  QueryKind kind;   // query family Q1 / Q2 / Q3
  size_t subs;      // standing subscriptions (mixed_churn: steady state)
  int shards;       // engine shards behind the facade
  int workers;      // workers per engine; every engine has one dispatcher
  bool churn;       // classes, WAL, two tenants, TTLs, 1 mutation / 5 posts
  size_t saturate_posts;  // closed loop, at kNominalSeconds
  size_t sync_posts;      // synchronous mode, at kNominalSeconds
  double lo_pps;
  double hi_pps;
};

// Frozen sizes and rates. Changing any of them changes the benchmark, so
// results from before and after are not comparable.
constexpr Workload kWorkloads[] = {
    {"us_q1_match", false, QueryKind::kQ1, 40000, 1, 2, false, 1200000,
     450000, 10000, 40000},
    {"uk_q2_fanout", true, QueryKind::kQ2, 50000, 1, 2, false, 80000, 20000,
     2000, 8000},
    {"us_fabric4", false, QueryKind::kQ1, 20000, 4, 1, false, 600000, 300000,
     10000, 40000},
    {"mixed_churn", false, QueryKind::kQ3, 30000, 1, 2, true, 200000, 100000,
     2500, 10000},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kNominalSeconds;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = "benchmark/out";
  std::string result_file;  // default: <out_dir>/results.jsonl
};

// ---- run plan --------------------------------------------------------------

struct Phase {
  enum Kind : uint8_t { kSaturate, kPaced, kSync };
  Kind kind = kSaturate;
  std::string name;
  size_t first = 0;  // global index of the phase's first post
  size_t posts = 0;
  double rate = 0.0;       // kPaced: posts per second
  size_t windows = 1;      // kPaced: latency windows
  bool mutations = false;  // the mutation schedule runs in this phase
  bool traced = false;
};

// Phases in run order: an untimed warmup, then kRounds rounds of
// saturate -> [traced saturate] -> lo -> hi -> sync. Interleaving spreads
// every metric's samples over the whole run, so a burst of contention on a
// shared host hits one round of each metric instead of all of one metric.
// Post indices are global and contiguous across phases; post i carries
// object id i + 1.
std::vector<Phase> BuildPlan(const Workload& w, double seconds, bool trace) {
  const double f = seconds / kNominalSeconds / kRounds;
  auto count = [f](size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(std::llround(n * f)));
  };
  std::vector<Phase> plan;
  auto add = [&](Phase p) {
    p.first = plan.empty() ? 0 : plan.back().first + plan.back().posts;
    plan.push_back(std::move(p));
  };
  Phase sat;
  sat.kind = Phase::kSaturate;
  sat.mutations = w.churn;
  // Untimed: the first few hundred thousand posts run slower while the
  // allocator and the engine's structures grow, a cost a long-running
  // service pays once.
  sat.name = "warmup";
  sat.posts = 3 * count(w.saturate_posts);
  add(sat);
  const double paced_secs = kPacedShare * seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    sat.name = "saturate";
    sat.posts = count(w.saturate_posts);
    add(sat);
    if (trace) {
      sat.name = "saturate_traced";
      sat.traced = true;
      add(sat);
      sat.traced = false;
    }
    for (const auto& [name, rate] :
         {std::pair<const char*, double>{"lo", w.lo_pps}, {"hi", w.hi_pps}}) {
      Phase p;
      p.kind = Phase::kPaced;
      p.name = name;
      p.rate = rate;
      p.posts = std::max<size_t>(1, static_cast<size_t>(rate * paced_secs));
      p.windows = std::max<size_t>(
          1, static_cast<size_t>(std::llround(paced_secs / kWindowSeconds)));
      p.mutations = true;
      p.traced = trace;
      add(p);
    }
    Phase sync;
    sync.kind = Phase::kSync;
    sync.name = "sync";
    sync.posts = count(w.sync_posts);
    sync.mutations = w.churn;
    sync.traced = trace;
    add(sync);
  }
  return plan;
}

// Distinct phase names, in run order.
std::vector<std::string> PhaseNames(const std::vector<Phase>& plan) {
  std::vector<std::string> names;
  for (const Phase& p : plan) {
    if (std::find(names.begin(), names.end(), p.name) == names.end()) {
      names.push_back(p.name);
    }
  }
  return names;
}

size_t TotalPosts(const std::vector<Phase>& plan) {
  return plan.back().first + plan.back().posts;
}

size_t MutationEvery(const Workload& w) {
  return w.churn ? kChurnEvery : kProbeEvery;
}

// True when a mutation follows post `i` of `phase`. The live run and the
// oracle both walk the plan with this rule, so they see one order.
bool MutationAfter(const Phase& phase, size_t i, size_t every) {
  return phase.mutations && (i + 1) % every == 0;
}

size_t CountMutations(const std::vector<Phase>& plan, size_t every) {
  size_t n = 0;
  for (const Phase& p : plan) {
    if (p.mutations) n += (p.first + p.posts) / every - p.first / every;
  }
  return n;
}

// ---- inputs ----------------------------------------------------------------

struct Mutation {
  enum Kind : uint8_t { kSubscribe, kCancel, kUpdate };
  Kind kind = kSubscribe;
  // kSubscribe: the new subscription. kCancel: its id. kUpdate: its id and
  // the new region.
  STSQuery query;
};

// Everything the service receives, generated from the seed before set-up.
struct Inputs {
  Vocabulary vocab;
  WorkloadSample sample;             // Bootstrap input
  std::vector<STSQuery> standing;    // subscribed during set-up, id order
  // Objects are reused round-robin; each post stamps a fresh id and event
  // time onto its pool slot.
  std::vector<SpatioTextualObject> pool;
  std::vector<Mutation> mutations;   // consumed in order by MutationAfter
  std::vector<QueryId> oracle_ids;   // live for the whole run
  QueryId max_query_id = 0;
};

// One object distributed like SyntheticCorpus::NextObject, drawn from the
// benchmark's seeded rng: the preset fixes the geography and topics, the
// seed picks the sample.
SpatioTextualObject MakeObject(const SyntheticCorpus& corpus, Rng& rng,
                               Vocabulary& vocab) {
  const Point loc = corpus.SampleLocation(rng);
  const double mean = corpus.config().mean_terms_per_object;
  const size_t k = static_cast<size_t>(
      std::max(1.0, std::round(rng.NextGaussian(mean, mean * 0.35))));
  std::vector<TermId> terms;
  terms.reserve(k);
  for (size_t i = 0; i < k; ++i) terms.push_back(corpus.SampleTermAt(loc, rng));
  SpatioTextualObject o = SpatioTextualObject::FromTerms(0, loc,
                                                         std::move(terms));
  for (const TermId t : o.terms) vocab.AddCount(t);
  return o;
}

// Rewrites a boolean query into a scored class over every term it mentions
// (the single OR clause CompileSpec produces).
void MakeScored(STSQuery* q, SubscriptionClass cls) {
  std::vector<TermId> terms;
  for (const auto& clause : q->expr.clauses()) {
    terms.insert(terms.end(), clause.begin(), clause.end());
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  q->expr = BoolExpr::Or(std::move(terms));
  q->cls = cls;
  if (cls == SubscriptionClass::kSimilarity) q->tau = 0.3;
  if (cls == SubscriptionClass::kTopK) q->k = 5;
}

// mixed_churn's class split: 80% boolean, 15% similarity, 5% top-k.
void AssignClass(STSQuery* q, Rng& rng) {
  const double dice = rng.NextDouble();
  if (dice >= 0.95) {
    MakeScored(q, SubscriptionClass::kTopK);
  } else if (dice >= 0.80) {
    MakeScored(q, SubscriptionClass::kSimilarity);
  }
}

// Churn schedule: mutations split 40/40/20 subscribe / cancel / update.
// Lifetimes follow GenerateStream's model (a query lives for N(mu,
// (0.2 mu)^2) later inserts), so about mu subscriptions stay live; a cancel
// with no query due becomes a subscribe, as in GenerateStream. Oracle
// queries never die.
void MakeChurn(const SyntheticCorpus& corpus, QueryGenerator& qgen,
               const StreamConfig& sc, StreamState& state, size_t count,
               Rng& rng, Inputs* in) {
  std::unordered_map<QueryId, size_t> live_pos;
  std::vector<QueryId> live;
  std::unordered_map<QueryId, Rect> region;
  auto add_live = [&](const STSQuery& q) {
    live_pos[q.id] = live.size();
    live.push_back(q.id);
    region[q.id] = q.region;
  };
  for (const STSQuery& q : in->standing) add_live(q);
  const auto later = std::greater<StreamState::LiveQuery>();
  const double mu = static_cast<double>(sc.mu);
  for (size_t n = 0; n < count; ++n) {
    Mutation m;
    const double dice = rng.NextDouble();
    if (dice >= 0.4 && dice < 0.8 && !state.live_heap.empty() &&
        state.live_heap.front().death_at <= state.inserts_so_far) {
      std::pop_heap(state.live_heap.begin(), state.live_heap.end(), later);
      m.kind = Mutation::kCancel;
      m.query.id = state.live_heap.back().query.id;
      state.live_heap.pop_back();
      const size_t pos = live_pos[m.query.id];
      live_pos[live.back()] = pos;
      live[pos] = live.back();
      live.pop_back();
      live_pos.erase(m.query.id);
      region.erase(m.query.id);
    } else if (dice >= 0.8 && !live.empty()) {
      m.kind = Mutation::kUpdate;
      m.query.id = live[rng.NextBelow(live.size())];
      const Rect old = region[m.query.id];
      m.query.region = Rect::Centered(corpus.SampleLocation(rng), old.width(),
                                      old.height());
      region[m.query.id] = m.query.region;
    } else {
      m.kind = Mutation::kSubscribe;
      m.query = qgen.Next();
      AssignClass(&m.query, rng);
      const double life = state.rng.NextGaussian(mu, sc.sigma_frac * mu);
      state.live_heap.push_back(StreamState::LiveQuery{
          state.inserts_so_far +
              static_cast<uint64_t>(std::max(1.0, std::round(life))),
          m.query});
      std::push_heap(state.live_heap.begin(), state.live_heap.end(), later);
      ++state.inserts_so_far;
      add_live(m.query);
    }
    in->mutations.push_back(std::move(m));
  }
}

Inputs MakeInputs(const Workload& w, size_t subs, uint64_t seed,
                  size_t pool_size, size_t num_mutations) {
  Inputs in;
  CorpusConfig cc = w.uk ? CorpusConfig::UkPreset() : CorpusConfig::UsPreset();
  // Benchmark-scale vocabularies, as the figure benches use: much larger
  // than the live query count, so Q2's rare keywords stay rare.
  cc.vocab_size = w.uk ? 80000 : 150000;
  cc.topic_terms_per_city = 1500;
  SyntheticCorpus corpus(cc, &in.vocab);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  // The pool primes the vocabulary's frequency profile before queries draw
  // keywords, as the stream would.
  in.pool.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    in.pool.push_back(MakeObject(corpus, rng, in.vocab));
    if (w.churn) {
      // 100k to 400k posts of event time: a top-k query sees about one
      // candidate per 50k posts, so this keeps several live at once and
      // exercises eviction and promotion.
      in.pool.back().ttl_us = (100000 + static_cast<int64_t>(rng.NextBelow(
                                            300000))) * kEventTickUs;
    }
  }
  QueryGenConfig qc;
  qc.kind = w.kind;
  qc.seed = 99 + seed;
  // Side lengths in absolute km, as the figure benches draw them: the UK
  // extent is far smaller, so the same km cover a larger share of it.
  if (w.uk) {
    qc.q1_side_min_frac = 0.0015;
    qc.q1_side_max_frac = 0.065;
    qc.q2_side_min_frac = 0.0015;
    qc.q2_side_max_frac = 0.13;
  } else {
    qc.q1_side_min_frac = 0.0003;
    qc.q1_side_max_frac = 0.012;
    qc.q2_side_min_frac = 0.0003;
    qc.q2_side_max_frac = 0.024;
  }
  QueryGenerator qgen(qc, &corpus);

  StreamConfig sc;
  sc.mu = subs;
  sc.seed = seed * 7919 + 5;
  StreamState state;
  if (w.churn) {
    state = InitStreamState(qgen, sc, nullptr, nullptr);
    for (auto& lq : state.live_heap) {
      AssignClass(&lq.query, rng);
      in.standing.push_back(lq.query);
    }
    std::sort(in.standing.begin(), in.standing.end(),
              [](const STSQuery& a, const STSQuery& b) { return a.id < b.id; });
  } else {
    in.standing = qgen.Generate(subs);
  }

  // Oracle sample: distinct standing queries chosen by the seed, with up to
  // a quarter each of top-k and similarity queries so the rare classes are
  // checked too.
  const SubscriptionClass kClasses[] = {SubscriptionClass::kTopK,
                                        SubscriptionClass::kSimilarity,
                                        SubscriptionClass::kBoolean};
  for (const SubscriptionClass cls : kClasses) {
    std::vector<QueryId> ids;
    for (const STSQuery& q : in.standing) {
      if (q.cls == cls) ids.push_back(q.id);
    }
    const size_t want = cls == SubscriptionClass::kBoolean
                            ? kOracleSample - in.oracle_ids.size()
                            : kOracleSample / 4;
    const size_t take = std::min(want, ids.size());
    for (size_t i = 0; i < take; ++i) {
      std::swap(ids[i], ids[i + rng.NextBelow(ids.size() - i)]);
      in.oracle_ids.push_back(ids[i]);
    }
  }
  std::sort(in.oracle_ids.begin(), in.oracle_ids.end());

  if (w.churn) {
    for (auto& lq : state.live_heap) {
      if (std::binary_search(in.oracle_ids.begin(), in.oracle_ids.end(),
                             lq.query.id)) {
        lq.death_at = UINT64_MAX;
      }
    }
    std::make_heap(state.live_heap.begin(), state.live_heap.end(),
                   std::greater<StreamState::LiveQuery>());
    MakeChurn(corpus, qgen, sc, state, num_mutations, rng, &in);
  } else {
    // Probe: subscribe a fresh query, cancel it at the next probe.
    for (size_t n = 0; n < num_mutations; ++n) {
      Mutation m;
      if (n % 2 == 0) {
        m.kind = Mutation::kSubscribe;
        m.query = qgen.Next();
      } else {
        m.kind = Mutation::kCancel;
        m.query.id = in.mutations.back().query.id;
      }
      in.mutations.push_back(std::move(m));
    }
  }

  in.sample.objects.assign(
      in.pool.begin(),
      in.pool.begin() + static_cast<std::ptrdiff_t>(
                            std::min<size_t>(20000, in.pool.size())));
  in.sample.inserts.assign(
      in.standing.begin(),
      in.standing.begin() + static_cast<std::ptrdiff_t>(
                                std::min<size_t>(20000, in.standing.size())));
  in.max_query_id = in.standing.empty() ? 0 : in.standing.back().id;
  for (const Mutation& m : in.mutations) {
    in.max_query_id = std::max(in.max_query_id, m.query.id);
  }
  return in;
}

// The object posted as global post `i`.
const SpatioTextualObject& StampPost(Inputs& in, size_t i) {
  SpatioTextualObject& o = in.pool[i % in.pool.size()];
  o.id = i + 1;
  o.timestamp_us = static_cast<int64_t>(i + 1) * kEventTickUs;
  return o;
}

// ---- tracing ---------------------------------------------------------------

// Spans the benchmark records around its calls into the library: name,
// start, end, parent span and request id (object or query id; 0 for phase
// roots), plus the number of work items the span covered. Kept in memory;
// the summary reads them all and the trace file gets a sample.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t id = 0;
    uint64_t count = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Returns -1 (and records nothing) when disabled or `on` is false.
  int32_t Open(const char* name, uint64_t id, int32_t parent,
               bool on = true) {
    if (!enabled_ || !on) return -1;
    Span s;
    s.name = name;
    s.start_ns = NowNs();
    s.parent = parent;
    s.id = id;
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t span, uint64_t count = 1, int64_t end_ns = 0) {
    if (span < 0) return;
    spans_[static_cast<size_t>(span)].end_ns = end_ns != 0 ? end_ns : NowNs();
    spans_[static_cast<size_t>(span)].count = count;
  }

  // Self time of every span: its duration minus the part its children
  // cover. Children of one span never overlap (one thread records them).
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_ns - spans_[i].start_ns;
      if (spans_[i].parent >= 0) {
        self[static_cast<size_t>(spans_[i].parent)] -=
            spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    return self;
  }

  struct Agg {
    double self_ns = 0.0;
    uint64_t count = 0;
    std::vector<double> each_ns;  // self time per span
  };
  // Aggregate over spans named `name` (and, when `parent` >= 0, with that
  // parent).
  Agg Aggregate(const std::vector<int64_t>& self, const char* name,
                int32_t parent = -1) const {
    Agg a;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (std::strcmp(s.name, name) != 0) continue;
      if (parent >= 0 && s.parent != parent) continue;
      a.self_ns += static_cast<double>(self[i]);
      a.count += s.count;
      a.each_ns.push_back(static_cast<double>(self[i]));
    }
    return a;
  }


  // JSON lines: phase roots and every request whose id is a multiple of
  // kTraceFileSample.
  bool Write(const std::string& path, const std::vector<int64_t>& self) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.id % kTraceFileSample != 0) continue;
      std::fprintf(f,
                   "{\"span\": %zu, \"parent\": %d, \"name\": \"%s\", "
                   "\"id\": %llu, \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"self_ns\": %lld, \"count\": %llu}\n",
                   i, s.parent, s.name, static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]),
                   static_cast<unsigned long long>(s.count));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ---- consumer --------------------------------------------------------------

// The subscriber: one thread looping TakeBatch on the run's single session.
// It times every delivery of a paced phase from its object's due time to
// the TakeBatch return that carried it, and keeps the oracle queries'
// deliveries. Top-k deliveries are not timed: an expiry can promote a
// candidate posted long before, by design.
class Consumer {
 public:
  Consumer(std::shared_ptr<SubscriberSession> session,
           const std::vector<Phase>& plan, const std::vector<int64_t>& due_ns,
           std::vector<int64_t>* first_take_ns,
           std::vector<int32_t> oracle_slot, size_t oracle_count,
           std::vector<bool> untimed)
      : session_(std::move(session)),
        plan_(plan),
        due_ns_(due_ns),
        first_take_ns_(*first_take_ns),
        oracle_slot_(std::move(oracle_slot)),
        delivered_(oracle_count),
        untimed_(std::move(untimed)),
        windows_(plan.size()) {
    for (size_t p = 0; p < plan_.size(); ++p) {
      if (plan_[p].kind == Phase::kPaced) windows_[p].resize(plan_[p].windows);
    }
    thread_ = std::thread([this] { Loop(); });
  }
  ~Consumer() { Finish(); }

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  // Blocks until `target` deliveries have been taken.
  void WaitTaken(uint64_t target) const {
    while (taken_.load(std::memory_order_acquire) < target) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  void Finish() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  uint64_t bad_ids() const { return bad_ids_; }  // after Finish()
  // Latency samples (us) of paced phase `p`, per window; stable once the
  // phase's deliveries have all been taken.
  const std::vector<std::vector<float>>& windows(size_t p) const {
    return windows_[p];
  }
  const std::vector<std::vector<ObjectId>>& delivered() const {
    return delivered_;
  }

 private:
  void Loop() {
    std::vector<Delivery> batch;
    size_t phase = 0;
    for (;;) {
      batch.clear();
      const size_t n =
          session_->TakeBatch(&batch, 4096, std::chrono::milliseconds(2));
      if (n == 0) {
        if (stop_.load(std::memory_order_acquire)) return;
        continue;
      }
      const int64_t now = NowNs();
      for (const Delivery& d : batch) {
        if (d.object_id == 0 || d.object_id > due_ns_.size()) {
          ++bad_ids_;
          continue;
        }
        const size_t i = d.object_id - 1;
        if (d.query_id < oracle_slot_.size() && oracle_slot_[d.query_id] >= 0) {
          delivered_[static_cast<size_t>(oracle_slot_[d.query_id])].push_back(
              d.object_id);
        }
        if (d.query_id < untimed_.size() && untimed_[d.query_id]) continue;
        if (first_take_ns_[i] == 0) first_take_ns_[i] = now;
        while (phase > 0 && i < plan_[phase].first) --phase;
        while (i >= plan_[phase].first + plan_[phase].posts) ++phase;
        const Phase& ph = plan_[phase];
        if (ph.kind == Phase::kPaced) {
          const size_t w = (i - ph.first) * ph.windows / ph.posts;
          windows_[phase][w].push_back(
              static_cast<float>(static_cast<double>(now - due_ns_[i]) / 1e3));
        }
      }
      taken_.fetch_add(n, std::memory_order_release);
    }
  }

  const std::shared_ptr<SubscriberSession> session_;
  const std::vector<Phase>& plan_;
  const std::vector<int64_t>& due_ns_;
  std::vector<int64_t>& first_take_ns_;
  const std::vector<int32_t> oracle_slot_;
  std::vector<std::vector<ObjectId>> delivered_;
  const std::vector<bool> untimed_;
  std::vector<std::vector<std::vector<float>>> windows_;
  uint64_t bad_ids_ = 0;
  std::atomic<uint64_t> taken_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- service ---------------------------------------------------------------

const std::string kTenants[2] = {"tenant-a", "tenant-b"};

PS2StreamOptions ServiceOptions(const Workload& w, const std::string& wal_dir) {
  PS2StreamOptions o;
  o.partition.num_workers = w.workers;
  o.engine.num_dispatchers = 1;
  o.sharding.num_shards = w.shards;
  if (w.churn) {
    o.durability.enabled = true;
    o.durability.dir = wal_dir;
    // Generous limits: every check runs, none rejects.
    o.quota.max_subscriptions_per_session = 10000000;
    o.quota.max_subscriptions_per_tenant = 10000000;
    o.quota.max_total_subscriptions = 10000000;
    o.quota.publish_rate_per_sec = 1e9;
  }
  return o;
}

SessionOptions SubscriberOptions(const Workload& w) {
  SessionOptions so;
  so.queue_capacity = 1 << 16;
  so.backpressure = BackpressurePolicy::kBlock;
  // The subscriber spins briefly before parking: on a virtual machine a
  // parked thread can take milliseconds to wake on a busy host, and latency
  // would then measure the host. The engine keeps its default (blocking)
  // waits; spinning engine threads starve the WAL flusher and the other
  // shards on 4 cores.
  so.wait_strategy = WaitStrategy::kAdaptiveSpin;
  if (w.churn) so.tenant = kTenants[0];
  return so;
}

// ---- oracle ----------------------------------------------------------------

struct OracleOutcome {
  uint64_t expected = 0;     // reference deliveries to stateless samples
  uint64_t mismatches = 0;   // pairs in one set but not the other
  uint64_t duplicates = 0;   // repeated pairs among sampled deliveries
  uint64_t topk_checked = 0;
  uint64_t topk_held = 0;    // reference entries held at the end
  uint64_t topk_mismatches = 0;
};

// Replays the sampled queries' inserts and updates and every posted object,
// in run order, through the ReferenceMatcher. Boolean and similarity samples
// must have received exactly the reference set; top-k samples must hold
// exactly the reference's held set at the final watermark.
OracleOutcome CheckOracle(Inputs& in, const std::vector<Phase>& plan,
                          size_t every,
                          const std::vector<std::vector<ObjectId>>& delivered,
                          PS2Stream& ps2) {
  OracleOutcome out;
  std::unordered_map<QueryId, size_t> slot;
  for (size_t s = 0; s < in.oracle_ids.size(); ++s) slot[in.oracle_ids[s]] = s;
  std::unordered_map<QueryId, STSQuery> sampled;
  ReferenceMatcher stateless, topk;
  for (const STSQuery& q : in.standing) {
    if (slot.count(q.id) == 0) continue;
    sampled[q.id] = q;
    (q.cls == SubscriptionClass::kTopK ? topk : stateless).Insert(q);
  }
  const int64_t final_wm =
      static_cast<int64_t>(TotalPosts(plan)) * kEventTickUs;
  std::vector<std::vector<ObjectId>> expected(in.oracle_ids.size());
  size_t next_mut = 0;
  for (const Phase& ph : plan) {
    for (size_t i = ph.first; i < ph.first + ph.posts; ++i) {
      const SpatioTextualObject& o = StampPost(in, i);
      for (const MatchResult& m : stateless.Match(o)) {
        expected[slot[m.query_id]].push_back(o.id);
      }
      // A candidate expired at the final watermark cannot be held, and the
      // held set is a function of the live candidates and the watermark
      // alone, so only live candidates need the (quadratic) stateful Post.
      if (topk.size() > 0 &&
          (o.ttl_us == 0 || o.timestamp_us + o.ttl_us > final_wm) &&
          !topk.Match(o).empty()) {
        topk.Post(o);
      }
      if (!MutationAfter(ph, i, every)) continue;
      const Mutation& m = in.mutations[next_mut++];
      const auto it = sampled.find(m.query.id);
      if (m.kind != Mutation::kUpdate || it == sampled.end()) continue;
      it->second.region = m.query.region;
      (it->second.cls == SubscriptionClass::kTopK ? topk : stateless)
          .Update(it->second);
    }
  }
  topk.AdvanceTime(final_wm);

  for (size_t s = 0; s < in.oracle_ids.size(); ++s) {
    std::vector<ObjectId> got = delivered[s];
    std::sort(got.begin(), got.end());
    const size_t before = got.size();
    got.erase(std::unique(got.begin(), got.end()), got.end());
    out.duplicates += before - got.size();
    const STSQuery& q = sampled[in.oracle_ids[s]];
    if (q.cls == SubscriptionClass::kTopK) {
      // Threaded delivery races candidates against the watermark, so the
      // delivered trace is timing-dependent; the held set is not.
      ++out.topk_checked;
      const std::vector<TopKEntry> have = ps2.topk().Snapshot(q.id);
      const std::vector<TopKEntry> want = topk.TopKSnapshot(q.id);
      out.topk_held += want.size();
      bool same = have.size() == want.size();
      for (size_t r = 0; same && r < have.size(); ++r) {
        same = have[r].object_id == want[r].object_id &&
               have[r].score == want[r].score &&
               have[r].expire_us == want[r].expire_us;
      }
      if (!same) ++out.topk_mismatches;
      continue;
    }
    std::vector<ObjectId>& want = expected[s];
    std::sort(want.begin(), want.end());
    out.expected += want.size();
    std::vector<ObjectId> diff;
    std::set_symmetric_difference(got.begin(), got.end(), want.begin(),
                                  want.end(), std::back_inserter(diff));
    out.mismatches += diff.size();
  }
  if (topk.size() > 0 && ps2.topk().watermark() != final_wm) {
    ++out.topk_mismatches;
  }
  return out;
}

// ---- per-layer replay ------------------------------------------------------

// Work counted at the replay's layer boundaries.
struct ReplayCounts {
  std::vector<double> build_s;  // partition builds
  DispatchStats dispatch;
  uint64_t objects = 0;
  uint64_t matches = 0;         // emitted by GI2, before dedup
  uint64_t offers = 0;
  uint64_t admitted = 0;
  uint64_t frame_bytes = 0;
  uint64_t decode_errors = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t dedup_fresh = 0;
  uint64_t dedup_kills = 0;
  uint64_t session_drops = 0;
  bool wal_open = false;
  double index_mb = 0.0;
};

// Replays the run's inputs on this thread through standalone layer objects
// built from the same sample and plan options: the standing subscriptions,
// the run's first posts with their mutations, then a teardown that cancels
// some standing subscriptions. Each replayed request
// is a root span with one child span per layer call, in the order the
// facade makes them.
class LayerReplay {
 public:
  LayerReplay(const PS2StreamOptions& options, const Inputs& in,
              Tracer* tracer, std::string wal_path)
      : vocab_(in.vocab),
        tracer_(*tracer),
        wal_path_(std::move(wal_path)) {
    AccumulateVocabularyCounts(in.sample, vocab_);
    PartitionPlan plan;
    for (size_t r = 0; r < kSetupRepsMin; ++r) {
      const int32_t s = tracer_.Open("partition.build", 0, -1);
      const int64_t t0 = NowNs();
      plan = MakePartitioner(options.partitioner)
                 ->Build(in.sample, vocab_, options.partition);
      counts_.build_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      tracer_.Close(s);
    }
    for (int i = 0; i < plan.num_workers; ++i) {
      index_.emplace_back(plan.grid, &vocab_);
    }
    gridt_ = std::make_unique<GridtIndex>(std::move(plan), &vocab_);
    dispatcher_ = std::make_unique<Dispatcher>(gridt_.get());
    SessionOptions so;
    so.queue_capacity = 1 << 16;
    so.backpressure = BackpressurePolicy::kDropNewest;
    session_ = std::make_shared<SubscriberSession>(so);
    router_.RegisterSession(session_);
    std::filesystem::remove(wal_path_);
    counts_.wal_open = wal_.Open(wal_path_, 1, 1);
  }

  ~LayerReplay() {
    wal_.Close();
    std::error_code ec;
    std::filesystem::remove(wal_path_, ec);
  }

  LayerReplay(const LayerReplay&) = delete;
  LayerReplay& operator=(const LayerReplay&) = delete;

  void Subscribe(const STSQuery& q, bool journal) {
    const int32_t root = tracer_.Open("replay.subscribe", q.id, -1);
    if (journal) {
      const int32_t s = tracer_.Open("persist.append", q.id, root);
      wal_.AppendSubscribe(q, vocab_);
      tracer_.Close(s);
      ++counts_.wal_appends;
    }
    if (q.cls == SubscriptionClass::kTopK) topk_.Register(q.id, q.k);
    int32_t s = tracer_.Open("api.route", q.id, root);
    router_.Route(q.id, session_);
    tracer_.Close(s);
    Index(q, root);
    live_[q.id] = q;
    tracer_.Close(root);
  }

  void Cancel(QueryId id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return;
    const int32_t root = tracer_.Open("replay.cancel", id, -1);
    int32_t s = tracer_.Open("persist.append", id, root);
    wal_.AppendUnsubscribe(id);
    tracer_.Close(s);
    ++counts_.wal_appends;
    s = tracer_.Open("api.unroute", id, root);
    router_.Unroute(id);
    tracer_.Close(s);
    topk_.Forget(id);
    Unindex(it->second, root);
    live_.erase(it);
    tracer_.Close(root);
  }

  void Update(QueryId id, const Rect& region) {
    const auto it = live_.find(id);
    if (it == live_.end()) return;
    const int32_t root = tracer_.Open("replay.update", id, -1);
    STSQuery q = it->second;
    q.region = region;
    const int32_t s = tracer_.Open("persist.append", id, root);
    wal_.AppendUpdate(q, vocab_);
    tracer_.Close(s);
    ++counts_.wal_appends;
    Unindex(it->second, root);
    Index(q, root);
    it->second = q;
    tracer_.Close(root);
  }

  void Post(const SpatioTextualObject& o) {
    const StreamTuple tuple = StreamTuple::OfObject(o);
    const int64_t publish_us = NowMicros();
    const int32_t root = tracer_.Open("replay.post", o.id, -1);
    ++counts_.objects;
    if (topk_.active()) {
      const int32_t s = tracer_.Open("subscribe.advance", o.id, root);
      promoted_.clear();
      topk_.AdvanceWatermark(o.timestamp_us, &promoted_);
      for (const Delivery& d : promoted_) router_.DeliverAdmitted(d);
      tracer_.Close(s, promoted_.size());
    }
    int32_t s = tracer_.Open("dispatch.route_object", o.id, root);
    routes_.clear();
    dispatcher_->Route(tuple, &routes_);
    tracer_.Close(s);
    matches_.clear();
    for (const Dispatcher::Delivery& r : routes_) {
      s = tracer_.Open("index.match", o.id, root);
      index_[static_cast<size_t>(r.worker)].Match(o, &matches_);
      tracer_.Close(s);
    }
    counts_.matches += matches_.size();

    s = tracer_.Open("api.deliver", o.id, root);
    fresh_.clear();
    candidates_.clear();
    uint64_t delivered = 0;
    for (const MatchResult& m : matches_) {
      if (!router_.AcceptFresh(m.query_id, m.object_id)) continue;
      fresh_.push_back(m);
      if (topk_.Owns(m.query_id)) {
        candidates_.push_back(m);
        continue;
      }
      router_.Deliver(m, publish_us);
      ++delivered;
    }
    tracer_.Close(s, delivered);
    if (!candidates_.empty()) {
      s = tracer_.Open("subscribe.offer", o.id, root);
      for (const MatchResult& m : candidates_) {
        Delivery d;
        d.query_id = m.query_id;
        d.object_id = m.object_id;
        d.publish_us = publish_us;
        d.score = m.score;
        d.expire_us = m.expire_us;
        if (topk_.Offer(d)) {
          router_.DeliverAdmitted(d);
          ++counts_.admitted;
        }
      }
      tracer_.Close(s, candidates_.size());
      counts_.offers += candidates_.size();
    }

    // Shard fabric hop: the object travels front -> owner shard inside a
    // reliable-link envelope; its fresh matches travel back as one batch.
    s = tracer_.Open("shard.encode", o.id, root);
    const std::string object_frame = EncodeControlFrame(
        1, ++frame_seq_, EncodeObjectFrame(o, publish_us));
    std::string match_frame;
    if (!fresh_.empty()) {
      wire_.resize(fresh_.size());
      for (size_t i = 0; i < fresh_.size(); ++i) {
        wire_[i] = WireMatch{fresh_[i].query_id, fresh_[i].object_id,
                             publish_us, fresh_[i].score, fresh_[i].expire_us};
      }
      match_frame = EncodeMatchBatchFrame(wire_.data(), wire_.size());
    }
    const uint64_t frames = match_frame.empty() ? 1 : 2;
    tracer_.Close(s, frames);
    s = tracer_.Open("shard.decode", o.id, root);
    if (!DecodeFrame(object_frame, &frame_)) ++counts_.decode_errors;
    if (!match_frame.empty() && !DecodeFrame(match_frame, &frame_)) {
      ++counts_.decode_errors;
    }
    tracer_.Close(s, frames);
    counts_.frame_bytes += object_frame.size() + match_frame.size();

    if (session_->pending() >= 1024) Take(root);
    tracer_.Close(root);
  }

  // Drains the session, closes the WAL and returns the counts.
  ReplayCounts Finish() {
    Take(-1);
    wal_.Close();
    std::error_code ec;
    const auto size = std::filesystem::file_size(wal_path_, ec);
    counts_.wal_bytes = ec ? 0 : static_cast<uint64_t>(size);
    counts_.dispatch = dispatcher_->stats();
    counts_.dedup_fresh = router_.dedup_fresh();
    counts_.dedup_kills = router_.dedup_kills();
    counts_.session_drops = session_->stats().dropped;
    return counts_;
  }

  // Index footprint with the standing subscriptions loaded.
  void RecordIndexMemory() {
    size_t bytes = 0;
    for (const Gi2Index& idx : index_) bytes += idx.MemoryBytes();
    counts_.index_mb = static_cast<double>(bytes) / (1 << 20);
  }

 private:
  void Index(const STSQuery& q, int32_t root) {
    int32_t s = tracer_.Open("dispatch.route_insert", q.id, root);
    routes_.clear();
    dispatcher_->Route(StreamTuple::OfInsert(q), &routes_);
    tracer_.Close(s);
    for (const Dispatcher::Delivery& r : routes_) {
      s = tracer_.Open("index.insert", q.id, root);
      index_[static_cast<size_t>(r.worker)].InsertIntoCells(q, r.cells);
      tracer_.Close(s);
    }
  }

  void Unindex(const STSQuery& q, int32_t root) {
    int32_t s = tracer_.Open("dispatch.route_delete", q.id, root);
    routes_.clear();
    dispatcher_->Route(StreamTuple::OfDelete(q), &routes_);
    tracer_.Close(s);
    for (const Dispatcher::Delivery& r : routes_) {
      s = tracer_.Open("index.delete", q.id, root);
      index_[static_cast<size_t>(r.worker)].Delete(q.id);
      tracer_.Close(s);
    }
  }

  void Take(int32_t root) {
    const int32_t s = tracer_.Open("api.take", 0, root);
    uint64_t n = 0;
    for (;;) {
      taken_.clear();
      const size_t got =
          session_->TakeBatch(&taken_, 4096, std::chrono::milliseconds(0));
      if (got == 0) break;
      n += got;
    }
    tracer_.Close(s, n);
  }

  Vocabulary vocab_;
  Tracer& tracer_;
  const std::string wal_path_;
  std::unique_ptr<GridtIndex> gridt_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::vector<Gi2Index> index_;
  DeliveryRouter router_;
  TopKCoordinator topk_;
  std::shared_ptr<SubscriberSession> session_;
  Wal wal_;
  std::unordered_map<QueryId, STSQuery> live_;
  ReplayCounts counts_;
  uint64_t frame_seq_ = 0;
  // Reused scratch.
  std::vector<Dispatcher::Delivery> routes_;
  std::vector<MatchResult> matches_, fresh_, candidates_;
  std::vector<Delivery> promoted_, taken_;
  std::vector<WireMatch> wire_;
  Frame frame_;
};

// ---- the run ---------------------------------------------------------------

// One round of one phase.
struct PhaseResult {
  double pps = 0.0;  // posts / (first Post -> all deliveries taken)
  std::vector<double> lag_us;  // paced: how late each send ran
  uint64_t deliveries = 0;
  double stop_ms = 0.0;
  RunReport report;  // from Stop() (engine phases)
  int32_t root = -1;
};

// All rounds of one phase, merged.
struct PhaseSummary {
  std::vector<size_t> rounds;  // plan indices
  size_t posts = 0;
  uint64_t deliveries = 0;
  double pps = 0.0;  // median round
  // Paced: due time -> TakeBatch return per delivery. p50 and p99 are the
  // medians over all windows of each window's p50 and p99; p999 and p9999
  // cover every sample, with the number of samples beyond each.
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0, p9999_us = 0.0;
  uint64_t samples = 0, beyond_p999 = 0, beyond_p9999 = 0;
  double lag_p99_us = 0.0;
  double stop_ms = 0.0;  // median round
  uint64_t wait_parks = 0;
  uint64_t ring_highwater = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  Bench(const Workload& w, const Options& opt)
      : w_(w),
        opt_(opt),
        scale_(opt.smoke ? kSmokeScale : 1.0),
        seconds_(opt.seconds * scale_),
        subs_(std::max<size_t>(
            kOracleSample,
            static_cast<size_t>(static_cast<double>(w.subs) * scale_))),
        plan_(BuildPlan(w, seconds_, opt.trace)),
        tracer_(opt.trace),
        wal_dir_(opt.out_dir + "/wal_" + w.name + "_" +
                 std::to_string(getpid())) {}

  ~Bench() {
    consumer_.reset();
    ps2_.reset();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir_, ec);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int Run();

 private:
  double SetUp(bool traced);
  PhaseResult RunPhase(size_t p);
  void Mutate(const Mutation& m, const Phase& ph, int32_t root);
  void WaitDrained() const {
    consumer_->WaitTaken(session_->stats().delivered);
  }
  PhaseSummary Summarize(const std::vector<PhaseResult>& r,
                         const std::string& name) const;
  std::vector<Metric> EndToEnd(const std::vector<double>& setups,
                               const std::vector<PhaseResult>& r) const;
  std::vector<Metric> PerLayer(const std::vector<PhaseResult>& r);
  std::string Stamp(double wall_s) const;

  const Workload& w_;
  const Options& opt_;
  const double scale_;
  const double seconds_;
  const size_t subs_;
  const std::vector<Phase> plan_;
  Inputs in_;
  // Per post: due time (paced) or send time, Post return, first take.
  std::vector<int64_t> due_ns_, post_ret_ns_, first_take_ns_;
  Tracer tracer_;
  const std::string wal_dir_;
  std::unique_ptr<PS2Stream> ps2_;
  PS2Stream::SessionPtr session_;
  std::unique_ptr<Consumer> consumer_;
  size_t setup_reps_ = 0;
  size_t next_mutation_ = 0;
  std::vector<double> mutation_us_;  // paced phases
  uint64_t attempted_ = 0;
  uint64_t api_errors_ = 0;
};

double Bench::SetUp(bool traced) {
  ps2_.reset();
  session_.reset();
  std::error_code ec;
  std::filesystem::remove_all(wal_dir_, ec);
  const int32_t root = tracer_.Open("phase.setup", 0, -1, traced);
  const int64_t t0 = NowNs();
  ps2_ = std::make_unique<PS2Stream>(ServiceOptions(w_, wal_dir_));
  ps2_->vocabulary() = in_.vocab;
  int32_t s = tracer_.Open("facade.Bootstrap", 0, root, traced);
  ps2_->Bootstrap(in_.sample);
  tracer_.Close(s);
  session_ = ps2_->OpenSession(SubscriberOptions(w_));
  for (const STSQuery& q : in_.standing) {
    s = tracer_.Open("facade.Subscribe", q.id, root, traced);
    auto sub = ps2_->Subscribe(session_, q);
    tracer_.Close(s);
    ++attempted_;
    if (sub.ok()) {
      sub->Release();
    } else {
      ++api_errors_;
    }
  }
  const int64_t t1 = NowNs();
  tracer_.Close(root, in_.standing.size(), t1);
  // The WAL must really be on for mixed_churn's writes to cost what they
  // should.
  if (w_.churn && !ps2_->durable()) ++api_errors_;
  return static_cast<double>(t1 - t0) / 1e9;
}

void Bench::Mutate(const Mutation& m, const Phase& ph, int32_t root) {
  static const char* const kNames[] = {"facade.Subscribe", "facade.Cancel",
                                       "facade.UpdateSubscription"};
  const int32_t s = tracer_.Open(kNames[m.kind], m.query.id, root, ph.traced);
  const int64_t t0 = NowNs();
  Status st;
  switch (m.kind) {
    case Mutation::kSubscribe: {
      auto sub = ps2_->Subscribe(session_, m.query);
      if (sub.ok()) {
        sub->Release();
      } else {
        st = sub.status();
      }
      break;
    }
    case Mutation::kCancel:
      st = ps2_->Cancel(m.query.id);
      break;
    case Mutation::kUpdate:
      st = ps2_->UpdateSubscription(m.query.id, m.query.region);
      break;
  }
  const int64_t t1 = NowNs();
  tracer_.Close(s, 1, t1);
  ++attempted_;
  if (!st.ok()) ++api_errors_;
  if (ph.kind == Phase::kPaced) {
    mutation_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
}

// Waits until `due_ns`: sleeps to within kSpinNs of it, then spins.
void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t ahead = due_ns - NowNs();
    if (ahead <= 0) return;
    if (ahead > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
    } else {
      CpuRelax();
    }
  }
}

PhaseResult Bench::RunPhase(size_t p) {
  const Phase& ph = plan_[p];
  PhaseResult r;
  r.root = tracer_.Open(ph.name.c_str(), 0, -1, ph.traced);
  const uint64_t delivered_before = session_->stats().delivered;
  const size_t every = MutationEvery(w_);
  if (ph.kind != Phase::kSync) {
    const int32_t s = tracer_.Open("facade.Start", 0, r.root, ph.traced);
    ps2_->Start();
    tracer_.Close(s);
  }
  const int64_t t_first = NowNs();
  // Paced sends start 1 ms in, after the engine threads are up.
  const int64_t t0 = t_first + 1000000;
  const double interval_ns = ph.kind == Phase::kPaced ? 1e9 / ph.rate : 0.0;
  if (ph.kind == Phase::kPaced) r.lag_us.reserve(ph.posts);
  for (size_t k = 0; k < ph.posts; ++k) {
    const size_t i = ph.first + k;
    if (ph.kind == Phase::kPaced) {
      const int64_t due =
          t0 + static_cast<int64_t>(interval_ns * static_cast<double>(k));
      WaitUntil(due);
      due_ns_[i] = due;
      r.lag_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
    } else {
      due_ns_[i] = NowNs();
    }
    const SpatioTextualObject& o = StampPost(in_, i);
    const int32_t s = tracer_.Open("facade.Post", o.id, r.root, ph.traced);
    const Status st =
        w_.churn ? ps2_->Post(kTenants[i % 2], o) : ps2_->Post(o);
    post_ret_ns_[i] = NowNs();
    tracer_.Close(s, 1, post_ret_ns_[i]);
    ++attempted_;
    if (!st.ok()) ++api_errors_;
    if (MutationAfter(ph, i, every)) {
      Mutate(in_.mutations[next_mutation_++], ph, r.root);
    }
  }
  if (ph.kind != Phase::kSync) {
    const int32_t s = tracer_.Open("facade.Stop", 0, r.root, ph.traced);
    const int64_t t = NowNs();
    r.report = ps2_->Stop();
    r.stop_ms = static_cast<double>(NowNs() - t) / 1e6;
    tracer_.Close(s);
  }
  const int32_t s = tracer_.Open("bench.drain", 0, r.root, ph.traced);
  WaitDrained();
  tracer_.Close(s);
  const int64_t t_end = NowNs();
  tracer_.Close(r.root, ph.posts, t_end);
  r.pps = static_cast<double>(ph.posts) * 1e9 /
          static_cast<double>(std::max<int64_t>(1, t_end - t_first));
  r.deliveries = session_->stats().delivered - delivered_before;
  return r;
}

PhaseSummary Bench::Summarize(const std::vector<PhaseResult>& r,
                              const std::string& name) const {
  PhaseSummary s;
  std::vector<double> pps, stop_ms, lag, all, window_p50, window_p99;
  for (size_t p = 0; p < plan_.size(); ++p) {
    if (plan_[p].name != name) continue;
    s.rounds.push_back(p);
    s.posts += plan_[p].posts;
    s.deliveries += r[p].deliveries;
    pps.push_back(r[p].pps);
    stop_ms.push_back(r[p].stop_ms);
    lag.insert(lag.end(), r[p].lag_us.begin(), r[p].lag_us.end());
    s.wait_parks += r[p].report.wait_parks;
    for (const uint64_t h : r[p].report.worker_ring_highwater) {
      s.ring_highwater = std::max(s.ring_highwater, h);
    }
    if (plan_[p].kind != Phase::kPaced) continue;
    for (const auto& window : consumer_->windows(p)) {
      std::vector<double> v(window.begin(), window.end());
      if (v.empty()) continue;
      window_p50.push_back(Percentile(v, 0.5));
      window_p99.push_back(Percentile(v, 0.99));
      all.insert(all.end(), v.begin(), v.end());
    }
  }
  s.pps = Median(pps);
  s.stop_ms = Median(stop_ms);
  s.lag_p99_us = Percentile(lag, 0.99);
  s.samples = all.size();
  s.p50_us = Median(window_p50);
  s.p99_us = Median(window_p99);
  s.p999_us = Percentile(all, 0.999);
  s.p9999_us = Percentile(all, 0.9999);
  for (const double v : all) {
    s.beyond_p999 += v > s.p999_us;
    s.beyond_p9999 += v > s.p9999_us;
  }
  return s;
}

// ---- metrics & output ------------------------------------------------------

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Json(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Json(metrics[i].name) + ": {\"value\": " + Json(metrics[i].value) +
           ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::vector<Metric> Bench::EndToEnd(const std::vector<double>& setups,
                                    const std::vector<PhaseResult>& r) const {
  const PhaseSummary lo = Summarize(r, "lo");
  const PhaseSummary hi = Summarize(r, "hi");
  return {
      {"setup_s", Median(setups), "s"},
      {"max_pps", Summarize(r, "saturate").pps, "posts/s"},
      {"p50_lo_us", lo.p50_us, "us"},
      {"p50_hi_us", hi.p50_us, "us"},
      {"sync_pps", Summarize(r, "sync").pps, "posts/s"},
      {"mut_p50_us", Percentile(mutation_us_, 0.5), "us"},
      {"rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> Bench::PerLayer(const std::vector<PhaseResult>& r) {
  // Standalone replay of the same inputs, span per layer call.
  ReplayCounts c;
  {
    LayerReplay replay(ServiceOptions(w_, wal_dir_), in_, &tracer_,
                       opt_.out_dir + "/replay_wal_" +
                           std::to_string(getpid()) + ".log");
    for (size_t n = 0; n < in_.standing.size(); ++n) {
      replay.Subscribe(in_.standing[n], n < kReplayWalStanding);
    }
    replay.RecordIndexMemory();
    const Phase& first = plan_[0];
    const size_t posts = std::min(
        first.posts, static_cast<size_t>(kReplayPosts * scale_));
    size_t next = 0;
    for (size_t i = first.first; i < first.first + posts; ++i) {
      replay.Post(StampPost(in_, i));
      if (!MutationAfter(first, i, MutationEvery(w_))) continue;
      const Mutation& m = in_.mutations[next++];
      switch (m.kind) {
        case Mutation::kSubscribe:
          replay.Subscribe(m.query, true);
          break;
        case Mutation::kCancel:
          replay.Cancel(m.query.id);
          break;
        case Mutation::kUpdate:
          replay.Update(m.query.id, m.query.region);
          break;
      }
    }
    const size_t teardown = std::min(
        in_.standing.size(), static_cast<size_t>(kReplayTeardown * scale_));
    for (size_t n = 0; n < teardown; ++n) replay.Cancel(in_.standing[n].id);
    c = replay.Finish();
  }
  if (c.decode_errors > 0 || c.session_drops > 0 || !c.wal_open) {
    ++api_errors_;
  }

  const std::vector<int64_t> self = tracer_.SelfTimes();
  tracer_.Write(opt_.out_dir + "/trace_" + w_.name + ".jsonl", self);
  auto per_item = [&](const char* name) {
    const Tracer::Agg a = tracer_.Aggregate(self, name);
    return a.count == 0 ? 0.0 : a.self_ns / static_cast<double>(a.count);
  };
  auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };

  const PhaseSummary untraced = Summarize(r, "saturate");
  const PhaseSummary traced = Summarize(r, "saturate_traced");
  const PhaseSummary lo = Summarize(r, "lo");
  const PhaseSummary hi = Summarize(r, "hi");
  std::vector<double> post_us, inflight_us;
  for (const size_t p : hi.rounds) {
    for (const double ns :
         tracer_.Aggregate(self, "facade.Post", r[p].root).each_ns) {
      post_us.push_back(ns / 1e3);
    }
    const Phase& ph = plan_[p];
    for (size_t i = ph.first; i < ph.first + ph.posts; ++i) {
      if (first_take_ns_[i] != 0) {
        inflight_us.push_back(
            static_cast<double>(first_take_ns_[i] - post_ret_ns_[i]) / 1e3);
      }
    }
  }
  double load_skew = 1.0;
  uint64_t frame_retries = 0;
  if (ShardedEngine* fabric = ps2_->fabric()) {
    frame_retries = fabric->fault_stats().frame_retries;
    double max_objects = 0.0, sum = 0.0;
    for (const RunReport& s : fabric->shard_reports()) {
      max_objects = std::max(max_objects, static_cast<double>(s.objects));
      sum += static_cast<double>(s.objects);
    }
    const double n = static_cast<double>(fabric->shard_reports().size());
    load_skew = ratio(max_objects, sum / std::max(1.0, n));
  }
  std::vector<double> append_us =
      tracer_.Aggregate(self, "persist.append").each_ns;
  for (double& v : append_us) v /= 1e3;

  return {
      {"runtime.post_us_p50", Percentile(post_us, 0.5), "us"},
      {"runtime.post_us_p99", Percentile(post_us, 0.99), "us"},
      {"runtime.inflight_us_p50", Median(inflight_us), "us"},
      {"runtime.drain_ms", traced.stop_ms, "ms"},
      {"runtime.ring_highwater", static_cast<double>(traced.ring_highwater),
       "count"},
      {"runtime.parks_per_kpost",
       ratio(static_cast<double>(lo.wait_parks),
             static_cast<double>(lo.posts) / 1e3),
       "parks/kpost"},
      {"partition.build_s", Median(c.build_s), "s"},
      {"dispatch.route_ns", per_item("dispatch.route_object"), "ns"},
      {"dispatch.insert_route_ns", per_item("dispatch.route_insert"), "ns"},
      {"dispatch.discard_ratio",
       ratio(static_cast<double>(c.dispatch.objects_discarded),
             static_cast<double>(c.dispatch.objects_routed)),
       "ratio"},
      {"dispatch.query_fanout",
       ratio(static_cast<double>(c.dispatch.query_deliveries),
             static_cast<double>(c.dispatch.inserts_routed +
                                 c.dispatch.deletes_routed)),
       "workers"},
      {"index.match_ns", per_item("index.match"), "ns"},
      {"index.matches_per_object",
       ratio(static_cast<double>(c.matches), static_cast<double>(c.objects)),
       "count"},
      {"index.insert_ns", per_item("index.insert"), "ns"},
      {"index.delete_ns", per_item("index.delete"), "ns"},
      {"index.memory_mb", c.index_mb, "MB"},
      {"api.route_us", per_item("api.route") / 1e3, "us"},
      {"api.deliver_ns", per_item("api.deliver"), "ns"},
      {"api.take_ns", per_item("api.take"), "ns"},
      {"api.dedup_kill_ratio",
       ratio(static_cast<double>(c.dedup_kills),
             static_cast<double>(c.dedup_fresh + c.dedup_kills)),
       "ratio"},
      {"api.drops", static_cast<double>(session_->stats().dropped), "count"},
      {"api.unrouted", static_cast<double>(ps2_->delivery().unrouted()),
       "count"},
      {"subscribe.offer_ns", per_item("subscribe.offer"), "ns"},
      {"subscribe.admit_ratio",
       ratio(static_cast<double>(c.admitted), static_cast<double>(c.offers)),
       "ratio"},
      {"shard.encode_ns", per_item("shard.encode"), "ns"},
      {"shard.decode_ns", per_item("shard.decode"), "ns"},
      {"shard.bytes_per_post",
       ratio(static_cast<double>(c.frame_bytes),
             static_cast<double>(c.objects)),
       "B/post"},
      {"shard.frame_retries", static_cast<double>(frame_retries), "count"},
      {"shard.load_skew", load_skew, "ratio"},
      {"persist.append_us_p50", Percentile(append_us, 0.5), "us"},
      {"persist.append_us_p99", Percentile(append_us, 0.99), "us"},
      {"persist.bytes_per_mutation",
       ratio(static_cast<double>(c.wal_bytes),
             static_cast<double>(c.wal_appends)),
       "B"},
      {"gen.lag_us_p99", hi.lag_p99_us, "us"},
      {"trace_overhead_pct",
       100.0 * ratio(untraced.pps - traced.pps, untraced.pps),
       "%"},
  };
}

std::string Bench::Stamp(double wall_s) const {
  const char* rev = std::getenv("PS2BENCH_GIT_REV");
  std::ostringstream s;
  s << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << Json(CpuModel())
    << ", \"compiler\": " << Json(__VERSION__)
    << ", \"cxx_flags\": " << Json(PS2BENCH_CXX_FLAGS)
    << ", \"build_type\": " << Json(PS2BENCH_BUILD_TYPE)
    << ", \"git_rev\": " << Json(rev != nullptr ? rev : "unknown")
    << ", \"seed\": " << opt_.seed << ", \"seconds\": " << Json(opt_.seconds)
    << ", \"smoke\": " << (opt_.smoke ? "true" : "false")
    << ", \"config\": {\"subs\": " << subs_ << ", \"shards\": " << w_.shards
    << ", \"workers\": " << w_.workers << ", \"dispatchers\": 1"
    << ", \"pool\": " << in_.pool.size()
    << ", \"mutation_every\": " << MutationEvery(w_)
    << ", \"setup_reps\": " << setup_reps_
    << ", \"phases\": [";
  const char* sep = "";
  for (const std::string& name : PhaseNames(plan_)) {
    size_t rounds = 0, posts = 0;
    double rate = 0.0;
    for (const Phase& p : plan_) {
      if (p.name != name) continue;
      ++rounds;
      posts = p.posts;
      rate = p.rate;
    }
    s << sep << "{\"name\": " << Json(name) << ", \"rounds\": " << rounds
      << ", \"posts_per_round\": " << posts << ", \"rate\": " << Json(rate)
      << "}";
    sep = ", ";
  }
  s << "]}, \"wall_s\": " << Json(wall_s) << "}";
  return s.str();
}

int Bench::Run() {
  const int64_t t_start = NowNs();
  const size_t total = TotalPosts(plan_);
  const size_t every = MutationEvery(w_);
  in_ = MakeInputs(w_, subs_, opt_.seed, std::min(total, kPoolMax),
                   CountMutations(plan_, every));
  due_ns_.assign(total, 0);
  post_ret_ns_.assign(total, 0);
  first_take_ns_.assign(total, 0);

  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.empty() ||
         (!opt_.trace && (setups.size() < kSetupRepsMin ||
                          (setup_total < kSetupBudgetSeconds &&
                           setups.size() < kSetupRepsMax)))) {
    setups.push_back(SetUp(opt_.trace));
    setup_total += setups.back();
  }
  setup_reps_ = setups.size();
  std::vector<int32_t> slot(in_.max_query_id + 1, -1);
  for (size_t s = 0; s < in_.oracle_ids.size(); ++s) {
    slot[in_.oracle_ids[s]] = static_cast<int32_t>(s);
  }
  std::vector<bool> topk(in_.max_query_id + 1, false);
  for (const STSQuery& q : in_.standing) {
    topk[q.id] = q.cls == SubscriptionClass::kTopK;
  }
  for (const Mutation& m : in_.mutations) {
    if (m.kind == Mutation::kSubscribe) {
      topk[m.query.id] = m.query.cls == SubscriptionClass::kTopK;
    }
  }
  consumer_ = std::make_unique<Consumer>(
      session_, plan_, due_ns_, &first_take_ns_, std::move(slot),
      in_.oracle_ids.size(), std::move(topk));
  // The generator (this thread) paces with short sleeps; the default 50 us
  // timer slack would make every one of them overshoot.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::vector<PhaseResult> results;
  for (size_t p = 0; p < plan_.size(); ++p) results.push_back(RunPhase(p));
  consumer_->Finish();

  const OracleOutcome oracle =
      CheckOracle(in_, plan_, every, consumer_->delivered(), *ps2_);
  const std::vector<Metric> metrics =
      opt_.trace ? PerLayer(results) : EndToEnd(setups, results);
  const uint64_t drops = session_->stats().dropped;
  const uint64_t failed = api_errors_ + drops + consumer_->bad_ids() +
                          oracle.mismatches + oracle.duplicates +
                          oracle.topk_mismatches;
  const double wall_s = static_cast<double>(NowNs() - t_start) / 1e9;

  std::printf("== %s  seed %llu  %.0f s%s%s ==\n", w_.name,
              static_cast<unsigned long long>(opt_.seed), opt_.seconds,
              opt_.smoke ? "  smoke" : "", opt_.trace ? "  traced" : "");
  std::printf("%-16s %9s %10s %11s %9s %9s %19s %19s %9s\n", "phase", "posts",
              "deliv/post", "posts/s", "p50_us", "p99_us", "p999_us(beyond)",
              "p9999_us(beyond)", "lag_p99");
  std::string info;
  for (const std::string& name : PhaseNames(plan_)) {
    const PhaseSummary r = Summarize(results, name);
    const double per_post =
        static_cast<double>(r.deliveries) / static_cast<double>(r.posts);
    std::printf("%-16s %9zu %10.2f %11.0f %9.1f %9.1f %11.1f(%6llu) "
                "%11.1f(%6llu) %9.1f\n",
                name.c_str(), r.posts, per_post, r.pps, r.p50_us, r.p99_us,
                r.p999_us, static_cast<unsigned long long>(r.beyond_p999),
                r.p9999_us, static_cast<unsigned long long>(r.beyond_p9999),
                r.lag_p99_us);
    info += (info.empty() ? "" : ", ") + std::string("{\"name\": ") +
            Json(name) + ", \"posts\": " + std::to_string(r.posts) +
            ", \"pps\": " + Json(r.pps) +
            ", \"deliveries\": " + std::to_string(r.deliveries) +
            ", \"samples\": " + std::to_string(r.samples) +
            ", \"p50_us\": " + Json(r.p50_us) + ", \"p99_us\": " +
            Json(r.p99_us) + ", \"p999_us\": " + Json(r.p999_us) +
            ", \"beyond_p999\": " + std::to_string(r.beyond_p999) +
            ", \"p9999_us\": " + Json(r.p9999_us) +
            ", \"beyond_p9999\": " + std::to_string(r.beyond_p9999) +
            ", \"lag_p99_us\": " + Json(r.lag_p99_us) + "}";
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.3f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double mut_p99 = Percentile(mutation_us_, 0.99);
  std::printf("  mutations %zu; paced: %zu timed, p99 %.1f us\n",
              next_mutation_, mutation_us_.size(), mut_p99);
  std::printf("  oracle: %zu sampled, %llu expected deliveries, %llu "
              "mismatches, %llu duplicates, top-k %llu/%llu mismatched "
              "(%llu held)\n",
              in_.oracle_ids.size(),
              static_cast<unsigned long long>(oracle.expected),
              static_cast<unsigned long long>(oracle.mismatches),
              static_cast<unsigned long long>(oracle.duplicates),
              static_cast<unsigned long long>(oracle.topk_mismatches),
              static_cast<unsigned long long>(oracle.topk_checked),
              static_cast<unsigned long long>(oracle.topk_held));
  std::printf("  attempted %llu, failed %llu (api %llu, drops %llu), "
              "fail_frac %.3g, wall %.1f s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(api_errors_),
              static_cast<unsigned long long>(drops),
              static_cast<double>(failed) / static_cast<double>(attempted_),
              wall_s);

  const std::string summary =
      std::string("{\"correct\": ") + (failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  const std::string result_file = opt_.result_file.empty()
                                      ? opt_.out_dir + "/results.jsonl"
                                      : opt_.result_file;
  if (std::FILE* f = std::fopen(result_file.c_str(), "a")) {
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
                 "\"result\": %s, \"phases\": [%s], \"mut_samples\": %zu, "
                 "\"mut_p99_us\": %s, \"oracle_sampled\": %zu, "
                 "\"oracle_expected\": %llu, \"stamp\": %s}\n",
                 Json(w_.name).c_str(),
                 static_cast<unsigned long long>(opt_.seed),
                 opt_.trace ? 1 : 0, summary.c_str(), info.c_str(),
                 mutation_us_.size(), Json(mut_p99).c_str(),
                 in_.oracle_ids.size(),
                 static_cast<unsigned long long>(oracle.expected),
                 Stamp(wall_s).c_str());
    std::fclose(f);
  }
  std::printf("%s\n", summary.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ps2bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--out DIR] [--result-file PATH]\n"
               "       ps2bench --list\n");
  return 2;
}

}  // namespace
}  // namespace ps2

int main(int argc, char** argv) {
  using namespace ps2;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list") {
      for (const Workload& w : kWorkloads) std::printf("%s\n", w.name);
      return 0;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else if (arg == "--result-file" && has_value) {
      opt.result_file = argv[++i];
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(opt.workload);
  if (w == nullptr || !(opt.seconds > 0.0)) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  Bench bench(*w, opt);
  return bench.Run();
}
