#include "runtime/engine_host.h"

#include "adjust/touch_tracking_executor.h"
#include "partition/plan.h"

namespace ps2 {

EngineHost::EngineHost(Options options, const Vocabulary* vocab,
                       DeliverySink* sink)
    : options_(std::move(options)), vocab_(vocab), sink_(sink) {
  if (options_.auto_adjust) {
    LoadControllerConfig config;
    config.adjust = options_.adjust;
    controller_ = std::make_unique<LoadController>(config);
  }
}

PartitionPlan EngineHost::BuildPlan(const std::string& partitioner,
                                    const WorkloadSample& sample,
                                    const Vocabulary& vocab,
                                    const PartitionConfig& config) {
  auto built = MakePartitioner(partitioner);
  if (built != nullptr && !sample.empty()) {
    return built->Build(sample, vocab, config);
  }
  PartitionPlan plan;
  plan.grid = GridSpec(sample.empty() ? Rect(0, 0, 1, 1) : sample.Bounds(),
                       config.grid_k);
  plan.num_workers = config.num_workers;
  plan.cells.resize(plan.grid.NumCells());
  for (CellId c = 0; c < plan.grid.NumCells(); ++c) {
    plan.cells[c].worker = static_cast<WorkerId>(c % config.num_workers);
  }
  return plan;
}

// --- lifecycle ---------------------------------------------------------------

void EngineHost::Bootstrap(PartitionPlan plan) {
  cluster_ = std::make_unique<Cluster>(std::move(plan), vocab_,
                                       options_.cluster);
}

void EngineHost::InitDurability(const DurabilityConfig& config,
                                QueryId next_query_id,
                                ObjectId next_object_id) {
  // The bootstrap state (vocab + plan, no queries yet) is recovery point
  // zero; every later mutation reaches the WAL before it takes effect.
  durability_ = std::make_unique<DurabilityManager>(config);
  CheckpointView view;
  view.next_query_id = next_query_id;
  view.next_object_id = next_object_id;
  view.vocab = vocab_;
  PartitionPlan plan;
  std::shared_ptr<const RoutingSnapshot> snapshot;
  CaptureRouting(config, &view, &plan, &snapshot);
  if (!durability_->Initialize(view)) durability_.reset();
}

bool EngineHost::Recover(const RecoveredState& state,
                         const DurabilityConfig& config) {
  cluster_ = std::make_unique<Cluster>(state.plan, vocab_, options_.cluster);
  // Re-inserting through the recovered plan rebuilds the gridt H2 entries
  // and the per-worker GI2 indexes in one pass.
  for (const STSQuery& q : state.queries) {
    cluster_->Process(StreamTuple::OfInsert(q));
  }
  cluster_->ResetLoadWindow();
  durability_ = std::make_unique<DurabilityManager>(config);
  // Resume logging on the *last* segment of the replayed chain, not the
  // committed checkpoint's: a crash between WAL rotation and checkpoint
  // commit leaves an orphan later segment, and appending to an earlier one
  // would let the next recovery's LSN high-water filter the orphan's
  // records out.
  const uint64_t resume_seq =
      state.checkpoint_seq +
      (state.wal_segments > 0 ? static_cast<uint64_t>(state.wal_segments) - 1
                              : 0);
  if (!durability_->Resume(resume_seq, state.last_lsn + 1)) {
    durability_.reset();
    return false;
  }
  return true;
}

// --- mutations ---------------------------------------------------------------

void EngineHost::Apply(const StreamTuple& tuple) {
  if (started()) {
    // Submit fails only once the engine stopped, which happens on this
    // thread; mutations therefore always land.
    engine_->Submit(tuple);
    return;
  }
  cluster_->Process(tuple);
  Track(tuple);
}

Status EngineHost::Subscribe(const STSQuery& query) {
  // WAL-before-apply: once the append returns (durable per the configured
  // sync mode), a crash at any later point recovers this subscription.
  if (durability_ != nullptr) {
    durability_->wal().AppendSubscribe(query, *vocab_);
  }
  Apply(StreamTuple::OfInsert(query));
  return Status::Ok();
}

Status EngineHost::Unsubscribe(const STSQuery& query) {
  if (durability_ != nullptr) {
    durability_->wal().AppendUnsubscribe(query.id);
  }
  Apply(StreamTuple::OfDelete(query));
  return Status::Ok();
}

Status EngineHost::Update(const STSQuery& query, const Rect* old_region) {
  if (durability_ != nullptr) {
    durability_->wal().AppendUpdate(query, *vocab_);
  }
  // Delete-then-insert with the same id. Both ride the query-update path —
  // dispatcher-pinned FIFO rings in started mode — so the pair can never
  // reorder against itself or later updates.
  if (old_region != nullptr) {
    STSQuery old_query = query;
    old_query.region = *old_region;
    Apply(StreamTuple::OfDelete(old_query));
  }
  Apply(StreamTuple::OfInsert(query));
  return Status::Ok();
}

Status EngineHost::Post(const SpatioTextualObject& object,
                        int64_t publish_us) {
  const StreamTuple tuple = StreamTuple::OfObject(object);
  if (started()) {
    // The engine's workers deliver to the sink through its dedup window.
    if (!engine_->Submit(tuple, publish_us)) {
      return Status::Unavailable("engine stopped while submitting");
    }
    return Status::Ok();
  }
  fresh_.clear();
  cluster_->Process(tuple, &fresh_);
  // The cluster dropped this object's cross-worker duplicates; the sink's
  // window drops a pair seen before — a repeated object id, or a pair the
  // started engine's workers (which filter through the same window)
  // already delivered before a Stop.
  staged_.clear();
  for (const MatchResult& m : fresh_) {
    if (!sink_->AcceptFresh(m.query_id, m.object_id)) continue;
    Delivery d;
    d.query_id = m.query_id;
    d.object_id = m.object_id;
    d.publish_us = publish_us;
    d.score = m.score;
    d.expire_us = m.expire_us;
    staged_.push_back(d);
  }
  if (!staged_.empty()) sink_->DeliverBatch(staged_.data(), staged_.size());
  Track(tuple);
  return Status::Ok();
}

// --- engine ------------------------------------------------------------------

void EngineHost::Start(EngineOptions options) {
  options.window_capacity = options_.window_capacity;
  if (options_.auto_adjust) {
    options.controller.enabled = true;
    options.controller.config.adjust = options_.adjust;
    options.controller.min_tuples = options_.adjust_check_interval;
  }
  if (durability_ != nullptr) options.wal = &durability_->wal();
  options.delivery = sink_;
  engine_ = std::make_unique<ThreadedEngine>(*cluster_, options);
  engine_->Start();
}

RunReport EngineHost::Stop() {
  if (!started()) return RunReport{};
  const RunReport report = engine_->Stop();
  engine_.reset();
  return report;
}

void EngineHost::Halt() {
  if (started()) engine_->Abort();
  engine_.reset();
  durability_.reset();
}

void EngineHost::Abort() {
  if (started()) engine_->Abort();
  engine_.reset();
  // Abandon, not Close: a graceful close would flush the WAL's pending
  // batch, making the "crash" more durable than the sync mode guaranteed.
  if (durability_ != nullptr) durability_->Abandon();
  durability_.reset();
}

void EngineHost::DataPlaneFill(uint64_t* pending, uint64_t* capacity) const {
  *pending = 0;
  *capacity = 0;
  if (started()) engine_->DataPlaneFill(pending, capacity);
}

// --- durability --------------------------------------------------------------

void EngineHost::CaptureRouting(
    const DurabilityConfig& config, CheckpointView* view, PartitionPlan* plan,
    std::shared_ptr<const RoutingSnapshot>* snapshot) {
  *plan = started() ? engine_->PlanCopy() : cluster_->router().plan();
  view->plan = plan;
  if (!config.include_snapshot) return;
  if (started()) {
    *snapshot = engine_->routing_snapshot();
  } else {
    SnapshotRouter router(&cluster_->router());
    *snapshot = router.Current();
  }
  view->snapshot = snapshot->get();
}

bool EngineHost::Checkpoint(QueryId next_query_id, ObjectId next_object_id,
                            std::vector<const STSQuery*> queries,
                            const TopKCheckpoint* topk) {
  if (durability_ == nullptr) return false;
  const uint64_t seq = durability_->BeginCheckpoint();
  if (seq == 0) return false;
  // Ordering matters: the WAL was already rotated, so any migration the
  // controller installs from here on lands in the new segment; the plan
  // copy below is taken under the routing writer lock and therefore sees
  // every migration journaled to the *old* segment. Either way nothing is
  // lost, and replaying an already-captured route is idempotent.
  CheckpointView view;
  view.next_query_id = next_query_id;
  view.next_object_id = next_object_id;
  view.vocab = vocab_;
  PartitionPlan plan;
  std::shared_ptr<const RoutingSnapshot> snapshot;
  CaptureRouting(durability_->config(), &view, &plan, &snapshot);
  view.queries = std::move(queries);
  view.topk = topk;
  return durability_->CommitCheckpoint(seq, std::move(view));
}

// --- synchronous load adjustment ---------------------------------------------

void EngineHost::Track(const StreamTuple& tuple) {
  if (controller_ == nullptr) return;
  window_.push_back(tuple);
  if (window_.size() > options_.window_capacity) window_.pop_front();
  if (++tuples_since_check_ >= options_.adjust_check_interval) {
    tuples_since_check_ = 0;
    MaybeAutoAdjust();
  }
}

void EngineHost::MaybeAutoAdjust() {
  WorkloadSample sample;
  for (const auto& t : window_) {
    switch (t.kind) {
      case TupleKind::kObject:
        sample.objects.push_back(t.object);
        break;
      case TupleKind::kQueryInsert:
        sample.inserts.push_back(t.query);
        break;
      case TupleKind::kQueryDelete:
        sample.deletes.push_back(t.query);
        break;
    }
  }
  SyncMigrationExecutor sync_exec(*cluster_);
  TouchTrackingExecutor exec(sync_exec);
  AdjustReport report = controller_->Check(
      *cluster_, cluster_->WorkerLoads(controller_->config().adjust.cost),
      sample, exec);
  controller_->MaybeEvaluateGlobal(*cluster_, sample);
  if (durability_ != nullptr) {
    durability_->wal().AppendCellRoutes(exec.touched_cells(),
                                        cluster_->router().plan(), *vocab_);
  }
  if (report.triggered) {
    adjustments_.push_back(std::move(report));
    cluster_->ResetLoadWindow();
  }
}

}  // namespace ps2
