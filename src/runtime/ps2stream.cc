#include "runtime/ps2stream.h"

#include <algorithm>
#include <filesystem>

#include "common/stopwatch.h"

namespace ps2 {

namespace {

// Gathers the per-shard option subset the fabric consumes out of the
// facade's option block.
ShardedEngineConfig FabricConfig(const PS2StreamOptions& options) {
  ShardedEngineConfig config;
  config.fabric = options.sharding;
  config.partitioner = options.partitioner;
  config.partition = options.partition;
  config.cluster = options.cluster;
  config.engine = options.engine;
  config.engine.window_capacity = options.window_capacity;
  config.durability = options.durability;
  return config;
}

// The single-engine host's share of the facade's option block.
EngineHost::Options HostOptions(const PS2StreamOptions& options) {
  EngineHost::Options host;
  host.cluster = options.cluster;
  host.auto_adjust = options.auto_adjust;
  host.adjust_check_interval = options.adjust_check_interval;
  host.adjust = options.adjust;
  host.window_capacity = options.window_capacity;
  return host;
}

}  // namespace

PS2Stream::PS2Stream(PS2StreamOptions options)
    : options_(std::move(options)),
      delivery_(std::make_unique<DeliveryRouter>()),
      quota_(options_.quota),
      overload_(options_.overload),
      alive_(std::make_shared<int>(0)) {
  // Top-k admission sits between the router's dedup window and the
  // sessions; with no top-k subscriptions registered it is one relaxed
  // atomic load per batch.
  delivery_->SetTopK(&topk_);
}

PS2Stream::~PS2Stream() {
  // The exporter thread snapshots live facade state; stop it before any of
  // that state starts tearing down.
  StopMetricsExporter();
  // Invalidate RAII Subscription handles first: a handle destroyed (on
  // this thread) after this point no-ops instead of re-entering a dying
  // facade. The token orders handle-vs-facade *destruction order*, not
  // cross-thread teardown — like the rest of the control plane, handles
  // and the facade must be destroyed from one thread.
  alive_.reset();
  // Through Stop(), not the engine's: the facade variant puts sessions into
  // draining mode first, so a worker parked on a full kBlock session cannot
  // wedge the join. A no-op when nothing is started.
  Stop();
}

void PS2Stream::Bootstrap(const WorkloadSample& sample) {
  AccumulateVocabularyCounts(sample, vocab_);
  if (options_.sharding.num_shards > 1) {
    // Multi-shard mode: the fabric owns plan building, the engine fleet and
    // per-shard durability; the facade keeps the vocabulary, the delivery
    // router and the subscription registry — the client API is unchanged.
    fabric_ = std::make_unique<ShardedEngine>(FabricConfig(options_),
                                              &vocab_, delivery_.get());
    fabric_->Bootstrap(sample);
    return;
  }
  host_ = std::make_unique<EngineHost>(HostOptions(options_), &vocab_,
                                       delivery_.get());
  host_->Bootstrap(EngineHost::BuildPlan(options_.partitioner, sample, vocab_,
                                         options_.partition));
  if (options_.durability.enabled && !options_.durability.dir.empty()) {
    host_->InitDurability(options_.durability, next_query_id_,
                          next_object_id_);
  }
}

bool PS2Stream::Restore(const std::string& dir) {
  if (bootstrapped()) return false;
  DurabilityConfig config = options_.durability;
  if (!dir.empty()) config.dir = dir;
  if (config.dir.empty()) return false;
  config.enabled = true;

  // A SHARDMAP file marks the directory as a fabric root; restore then
  // reassembles the whole fleet (the shard count comes from the file, not
  // the options, so a facade configured for 1 shard still restores an
  // N-shard directory correctly).
  if (std::filesystem::exists(ShardMapPath(config.dir))) {
    PS2StreamOptions fabric_options = options_;
    fabric_options.durability = config;
    auto fabric = std::make_unique<ShardedEngine>(
        FabricConfig(fabric_options), &vocab_, delivery_.get());
    ShardedEngine::Recovery recovery;
    if (!fabric->Restore(config.dir, &recovery)) {
      vocab_ = Vocabulary();
      return false;
    }
    fabric_ = std::move(fabric);
    AdoptRecovered(recovery.queries, recovery.topk, recovery.next_query_id,
                   recovery.next_object_id);
  } else {
    auto state = std::make_unique<RecoveredState>();
    if (!RecoverState(config.dir, state.get())) return false;
    vocab_ = std::move(state->vocab);
    auto host = std::make_unique<EngineHost>(HostOptions(options_), &vocab_,
                                             delivery_.get());
    if (!host->Recover(*state, config)) {
      // Recovery loaded but logging cannot continue: succeeding here would
      // leave a service that silently loses every post-restore mutation.
      // Fail wholesale; the caller keeps a virgin instance.
      vocab_ = Vocabulary();
      return false;
    }
    host_ = std::move(host);
    AdoptRecovered(state->queries, state->topk, state->next_query_id,
                   state->next_object_id);
    recovered_ = std::move(state);
  }
  options_.durability = config;
  return true;
}

void PS2Stream::AdoptRecovered(const std::vector<STSQuery>& queries,
                               const TopKCheckpoint& topk,
                               QueryId next_query_id,
                               ObjectId next_object_id) {
  subscriptions_.clear();
  for (const STSQuery& q : queries) {
    subscriptions_[q.id] = q;
    if (q.cls == SubscriptionClass::kTopK) topk_.Register(q.id, q.k);
    // Quota charges are runtime state, not persisted: recovered
    // subscriptions re-charge against the default tenant (attribution is
    // lost across a crash) and are never rejected.
    quota_.ChargeRestored(q.id, std::string());
  }
  live_subscriptions_.store(subscriptions_.size(), std::memory_order_relaxed);
  // Heap state restores after registration (Restore drops entries of
  // queries that are no longer live — e.g. unsubscribed after the
  // checkpoint and replayed from the WAL).
  topk_.Restore(topk);
  next_query_id_ = next_query_id;
  next_object_id_ = next_object_id;
}

bool PS2Stream::Checkpoint() {
  if (!bootstrapped()) return false;
  const TopKCheckpoint topk_cp = topk_.Checkpoint();
  if (fabric_ != nullptr) {
    return fabric_->Checkpoint(next_query_id_, next_object_id_, &topk_cp);
  }
  std::vector<const STSQuery*> queries;
  queries.reserve(subscriptions_.size());
  for (const auto& [id, q] : subscriptions_) queries.push_back(&q);
  return host_->Checkpoint(next_query_id_, next_object_id_,
                           std::move(queries), &topk_cp);
}

void PS2Stream::MaybeCheckpoint() {
  if (fabric_ != nullptr ? fabric_->ShouldCheckpoint()
                         : host_->ShouldCheckpoint()) {
    Checkpoint();
  }
}

void PS2Stream::Kill() {
  // A crash tears sessions down with the process: release any worker
  // blocked on a full kBlock queue so Abort() can join the threads.
  delivery_->SetDraining(true);
  if (fabric_ != nullptr) fabric_->Kill();
  if (host_ != nullptr) host_->Abort();
  killed_ = true;
  // The in-memory cluster and subscription map are left readable for
  // post-mortem inspection (tests compare them against what recovery
  // reconstructs), but the service must not be used again.
}

void PS2Stream::Start() {
  if (!bootstrapped() || started()) return;
  if (fabric_ != nullptr) {
    fabric_->Start();
  } else {
    host_->Start(options_.engine);
  }
}

RunReport PS2Stream::Stop() {
  if (!started()) return RunReport{};
  // Drain mode: from here until the engine is down, a full kBlock session
  // drops instead of blocking the worker that delivers to it — otherwise a
  // consumer that stopped pulling would park a worker thread forever and
  // Stop() could never join it.
  delivery_->SetDraining(true);
  RunReport report = fabric_ != nullptr ? fabric_->Stop() : host_->Stop();
  delivery_->SetDraining(false);
  OverlayLiveCounters(&report);
  {
    // Base layer for MetricsSnapshot(): the engine-internal counters (ring
    // highwaters, migrations, fault tallies) are only assembled here.
    std::lock_guard<std::mutex> lock(report_mu_);
    last_report_ = report;
  }
  return report;
}

// --- client API --------------------------------------------------------------

PS2Stream::SessionPtr PS2Stream::OpenSession(SessionOptions options) {
  auto session = std::make_shared<SubscriberSession>(options);
  delivery_->RegisterSession(session);
  return session;
}

StatusOr<Subscription> PS2Stream::Subscribe(const SessionPtr& session,
                                            const std::string& expression,
                                            const Rect& region) {
  if (const Status st = ServiceGate("Subscribe"); !st.ok()) return st;
  std::string parse_error;
  BoolExpr expr = BoolExpr::Parse(expression, vocab_, &parse_error);
  if (expr.has_error()) {
    return Status::InvalidArgument("expression \"" + expression +
                                   "\": " + parse_error);
  }
  if (expr.empty()) {
    return Status::InvalidArgument("expression \"" + expression +
                                   "\" has no keywords");
  }
  if (const Status gate = DurabilityGate(); !gate.ok()) return gate;
  STSQuery q;
  q.id = next_query_id_++;
  q.expr = std::move(expr);
  q.region = region;
  return ApplySubscribe(q, session);
}

StatusOr<Subscription> PS2Stream::Subscribe(const SessionPtr& session,
                                            const STSQuery& query) {
  if (const Status st = ServiceGate("Subscribe"); !st.ok()) return st;
  if (query.id == 0) {
    return Status::InvalidArgument("query id 0 is reserved");
  }
  if (query.expr.empty()) {
    return Status::InvalidArgument("query has an empty expression");
  }
  if (subscriptions_.count(query.id) != 0) {
    return Status::AlreadyExists("query id " + std::to_string(query.id) +
                                 " is already subscribed");
  }
  if (const Status st = ValidateQuerySpec(query); !st.ok()) return st;
  if (const Status gate = DurabilityGate(); !gate.ok()) return gate;
  return ApplySubscribe(query, session);
}

StatusOr<Subscription> PS2Stream::Subscribe(const SessionPtr& session,
                                            const SubscriptionSpec& spec) {
  if (const Status st = ServiceGate("Subscribe"); !st.ok()) return st;
  STSQuery q;
  if (const Status st = CompileSpec(spec, vocab_, &q); !st.ok()) return st;
  if (const Status gate = DurabilityGate(); !gate.ok()) return gate;
  q.id = next_query_id_++;
  return ApplySubscribe(q, session);
}

Status PS2Stream::UpdateSubscription(QueryId id, const Rect& new_region) {
  if (const Status st = ServiceGate("UpdateSubscription"); !st.ok()) return st;
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) {
    return Status::NotFound("no live subscription with id " +
                            std::to_string(id));
  }
  if (const Status gate = DurabilityGate(); !gate.ok()) return gate;
  const STSQuery old_query = it->second;
  it->second.region = new_region;
  // The backend journals the update (per shard in fabric mode) and moves
  // the index: a delete draining the old cells, then an insert into the new
  // ones — kQueryUpdate / insert / delete frames by old-vs-new owner in
  // fabric mode. A quarantined target bounces the whole update. The
  // session route and any held top-k results are untouched.
  const Status st = fabric_ != nullptr
                        ? fabric_->Update(old_query, it->second)
                        : host_->Update(it->second, &old_query.region);
  if (!st.ok()) {
    it->second = old_query;
    return st;
  }
  MaybeCheckpoint();
  return Status::Ok();
}

Status PS2Stream::Cancel(QueryId id) {
  if (killed_) return Status::Unavailable("service was killed");
  if (subscriptions_.find(id) == subscriptions_.end()) {
    return Status::NotFound("no live subscription with id " +
                            std::to_string(id));
  }
  return ApplyUnsubscribe(id);
}

void PS2Stream::CancelSubscription(QueryId id) {
  if (killed_) return;
  ApplyUnsubscribe(id);
}

Status PS2Stream::Post(Point loc, const std::string& text) {
  return Post(std::string(), loc, text);
}

Status PS2Stream::Post(const SpatioTextualObject& object) {
  return Post(std::string(), object);
}

Status PS2Stream::Post(const std::string& tenant, Point loc,
                       const std::string& text) {
  // Rate-limit before the object is built: a rejected publish must not
  // consume an object id or touch the vocabulary frequency profile.
  if (const Status st = AdmitPublish(tenant); !st.ok()) return st;
  // Tokens the vocabulary has never seen are dropped in every mode: no
  // subscription can name them, and keeping them would only change the
  // object's similarity norm. A stopped service counts the known terms into
  // the frequency profile; a started one leaves it frozen, because the load
  // controller reads it while the data plane runs.
  std::vector<TermId> ids;
  for (const auto& tok : tokenizer_.Tokenize(text)) {
    const TermId t = vocab_.Lookup(tok);
    if (t != kInvalidTerm) ids.push_back(t);
  }
  SpatioTextualObject o =
      SpatioTextualObject::FromTerms(next_object_id_++, loc, std::move(ids));
  if (!started()) {
    for (const TermId t : o.terms) vocab_.AddCount(t);
  }
  return PostInternal(o);
}

Status PS2Stream::Post(const std::string& tenant,
                       const SpatioTextualObject& object) {
  if (const Status st = AdmitPublish(tenant); !st.ok()) return st;
  return PostInternal(object);
}

Status PS2Stream::AdmitPublish(const std::string& tenant) {
  if (const Status st = ServiceGate("Post"); !st.ok()) return st;
  return quota_.AdmitPublish(tenant, NowMicros());
}

Status PS2Stream::PostInternal(const SpatioTextualObject& object) {
  if (const Status gate = DurabilityGate(); !gate.ok()) return gate;
  // Overload sampling rides the publish path (every check_interval admitted
  // posts) so pressure is observed exactly when it is being generated.
  if (overload_.ShouldSample()) SampleOverload();
  next_object_id_ = std::max(next_object_id_, object.id + 1);
  // Event time moves first, exactly like the reference matcher: expiries
  // (and the promotions they cause) land before this object's own matches.
  AdvanceWatermark(object.timestamp_us);
  // The publish stamp travels with the object (through the wire, in fabric
  // mode), so delivery latency covers the whole path. kUnavailable when the
  // engine stopped mid-submit, or when the owner shard is quarantined
  // (degraded mode).
  const int64_t publish_us = NowMicros();
  return fabric_ != nullptr ? fabric_->Post(object, publish_us)
                            : host_->Post(object, publish_us);
}

StatusOr<Subscription> PS2Stream::ApplySubscribe(const STSQuery& query,
                                                 const SessionPtr& session) {
  // Admission control first — every Subscribe overload funnels through
  // here, so shedding and quotas cannot be bypassed. While the overload
  // controller is degraded, new subscriptions are refused outright (the
  // load that tripped it must drain before the working set may grow).
  if (overload_.shed_subscribes()) {
    overload_.CountShed();
    return Status::ResourceExhausted(
        "overload: subscribe rejected while degraded (queue fill above "
        "overload.high_watermark)");
  }
  if (Status st = quota_.ChargeSubscribe(
          query.id, session != nullptr ? session->options().tenant : "",
          session != nullptr ? session->uid() : 0);
      !st.ok()) {
    return st;
  }
  // Arm top-k admission before any path can index the query: a candidate
  // produced the instant the insert applies must find its state.
  if (query.cls == SubscriptionClass::kTopK) {
    topk_.Register(query.id, query.k);
  }
  // The routing clause is chosen here, once, before the registry, the WAL
  // or a fabric frame sees the query; dispatchers, indexes, migrations and
  // recovery all read the clause the query carries.
  STSQuery& admitted = subscriptions_[query.id] = query;
  admitted.expr.ChooseRouting(vocab_);
  next_query_id_ = std::max(next_query_id_, query.id + 1);
  // Route deliveries before any engine can index the query: a match can only
  // be produced after the insert is applied, so the session never misses
  // one.
  if (session != nullptr) delivery_->Route(query.id, session);
  // WAL-before-apply happens inside (per shard in fabric mode). A
  // quarantined owner shard bounces the whole subscription (the fabric
  // rolled its side back already).
  const Status st = fabric_ != nullptr ? fabric_->Subscribe(admitted)
                                       : host_->Subscribe(admitted);
  if (!st.ok()) {
    subscriptions_.erase(query.id);
    delivery_->Unroute(query.id);
    topk_.Forget(query.id);
    quota_.Refund(query.id);
    return st;
  }
  live_subscriptions_.fetch_add(1, std::memory_order_relaxed);
  MaybeCheckpoint();
  return Subscription(query.id, this, alive_);
}

Status PS2Stream::ApplyUnsubscribe(QueryId id) {
  auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return Status::Ok();
  // Release the quota charge the moment the subscription stops being live —
  // a tenant at its limit can Cancel one subscription and immediately admit
  // another.
  quota_.Refund(id);
  live_subscriptions_.fetch_sub(1, std::memory_order_relaxed);
  const STSQuery query = std::move(it->second);
  subscriptions_.erase(it);
  // Unroute immediately: no delivery reaches the session after Unsubscribe
  // returns. A match already in flight in a started engine lands in the
  // router's `unrouted` counter instead.
  delivery_->Unroute(id);
  topk_.Forget(id);
  // In fabric mode, copies at quarantined shards die with the shard; only a
  // fleet-wide outage of the owners reports kUnavailable.
  const Status st = fabric_ != nullptr ? fabric_->Unsubscribe(id)
                                       : host_->Unsubscribe(query);
  MaybeCheckpoint();
  return st;
}

void PS2Stream::AdvanceWatermark(int64_t watermark_us) {
  if (!topk_.active()) return;
  std::vector<Delivery> promoted;
  topk_.AdvanceWatermark(watermark_us, &promoted);
  for (const Delivery& d : promoted) delivery_->DeliverAdmitted(d);
}

void PS2Stream::AdvanceEventTime(int64_t watermark_us) {
  if (killed_) return;
  AdvanceWatermark(watermark_us);
}

Status PS2Stream::ServiceGate(const char* operation) const {
  if (killed_) return Status::Unavailable("service was killed");
  if (!bootstrapped()) {
    return Status::FailedPrecondition(
        std::string("Bootstrap() or Restore() must succeed before ") +
        operation);
  }
  return Status::Ok();
}

Status PS2Stream::DurabilityGate() const {
  if (fabric_ != nullptr) return fabric_->durability_status();
  const DurabilityManager* durability = host_->durability();
  if (durability != nullptr && !durability->healthy()) {
    return Status::DataLoss(
        "WAL hit a sticky I/O error; mutations would not survive a crash");
  }
  return Status::Ok();
}

Status PS2Stream::Health() {
  if (const Status st = ServiceGate("Health"); !st.ok()) return st;
  if (fabric_ != nullptr) return fabric_->CheckHealth();
  return DurabilityGate();
}

void PS2Stream::SampleOverload() {
  uint64_t session_pending = 0, session_capacity = 0;
  delivery_->QueueDepth(&session_pending, &session_capacity);
  uint64_t ring_pending = 0, ring_capacity = 0;
  if (fabric_ != nullptr) {
    fabric_->DataPlaneFill(&ring_pending, &ring_capacity);
  } else {
    host_->DataPlaneFill(&ring_pending, &ring_capacity);
  }
  const double session_fill =
      session_capacity > 0 ? static_cast<double>(session_pending) /
                                 static_cast<double>(session_capacity)
                           : 0.0;
  const double ring_fill =
      ring_capacity > 0 ? static_cast<double>(ring_pending) /
                              static_cast<double>(ring_capacity)
                        : 0.0;
  overload_.Observe(session_fill, ring_fill,
                    overload_.config().force_drop_oldest ? delivery_.get()
                                                         : nullptr);
}

RunReport PS2Stream::MetricsSnapshot() const {
  RunReport r;
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    r = last_report_;
  }
  // The base layer's engine internals (ring highwaters, migrations, fault
  // tallies) stay at their last-Stop values.
  OverlayLiveCounters(&r);
  r.dedup_kills = delivery_->dedup_kills();
  return r;
}

void PS2Stream::OverlayLiveCounters(RunReport* r) const {
  const SessionStats sessions = delivery_->AggregateStats();
  r->session_deliveries = sessions.delivered;
  r->session_drops = sessions.dropped;
  r->delivery_latency = sessions.latency;
  r->matches_unrouted = delivery_->unrouted();
  r->quota_rejections = quota_.rejections();
  r->rate_limited = quota_.rate_limited();
  r->overload_trips = overload_.trips();
  r->overload_sheds = overload_.sheds();
  r->live_subscriptions = live_subscriptions_.load(std::memory_order_relaxed);
}

std::string PS2Stream::MetricsPrometheus() const {
  const RunReport snapshot = MetricsSnapshot();
  if (fabric_ != nullptr && !fabric_->shard_reports().empty()) {
    return RenderPrometheus(snapshot, &fabric_->shard_reports());
  }
  return RenderPrometheus(snapshot, nullptr);
}

std::string PS2Stream::MetricsJson() const {
  return RenderJson(MetricsSnapshot());
}

bool PS2Stream::StartMetricsExporter(MetricsExporter::Options exporter_options) {
  if (exporter_ != nullptr && exporter_->running()) return false;
  exporter_ = std::make_unique<MetricsExporter>(
      std::move(exporter_options), [this] { return MetricsSnapshot(); });
  exporter_->Start();
  return true;
}

void PS2Stream::StopMetricsExporter() {
  if (exporter_ != nullptr) exporter_->Stop();
}

const std::vector<AdjustReport>& PS2Stream::adjustments() const {
  static const std::vector<AdjustReport> kNone;
  return host_ != nullptr ? host_->adjustments() : kNone;
}

}  // namespace ps2
