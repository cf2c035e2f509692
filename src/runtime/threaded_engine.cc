#include "runtime/threaded_engine.h"

#include <algorithm>
#include <functional>

#include "adjust/touch_tracking_executor.h"
#include "api/delivery_sink.h"
#include "common/stopwatch.h"
#include "persist/wal.h"
#include "runtime/spsc_ring.h"

namespace ps2 {

// ---------------------------------------------------------------------------
// Internal types
// ---------------------------------------------------------------------------

struct ThreadedEngine::Latch {
  explicit Latch(size_t n) : count(n) {}
  std::mutex mu;
  std::condition_variable cv;
  size_t count;

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu);
    if (count > 0 && --count == 0) cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return count == 0; });
  }
};

// Work item delivered to a worker thread through one of its data rings.
struct ThreadedEngine::WorkItem {
  StreamTuple tuple;
  std::vector<CellId> cells;  // for query updates
  int64_t enqueue_us = 0;
  // Publish timestamp stamped at Submit(); session delivery latency is
  // measured from here (enqueue_us only covers the worker-ring dwell).
  int64_t submit_us = 0;
  // Objects only: the target worker's query_items_enqueued count read just
  // before the push. The worker must not match this object until it has
  // applied that many updates — data rings from different dispatchers
  // would otherwise reorder an object ahead of an update submitted before
  // it.
  uint64_t updates_before = 0;
};

// Input-ring element: the tuple plus its update-ordering gate stamp.
struct ThreadedEngine::SeqTuple {
  StreamTuple tuple;
  uint64_t updates_before = 0;
  int64_t submit_us = 0;
};

struct ThreadedEngine::WorkerState {
  std::mutex mu;  // guards this worker's Gi2 (worker thread vs controller)
  // Parked-worker wakeup, shared by every ring this worker drains.
  EventCount ready;
  // One SPSC data ring per dispatcher, plus a control ring the controller
  // pushes drain markers through.
  std::vector<std::unique_ptr<SpscRing<WorkItem>>> rings;
  std::unique_ptr<SpscRing<std::shared_ptr<Latch>>> control;
  std::atomic<uint64_t> objects{0};
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> deletes{0};
  // Matches produced by this worker's Gi2, pre-dedup (duplicates across
  // workers still included); exported as RunReport::matches_emitted.
  std::atomic<uint64_t> matches_emitted{0};
  // Query-update flow accounting for the migration barrier and the
  // per-worker object stamps: enqueued counts updates whose ring push
  // completed, applied counts updates this worker's Gi2 absorbed.
  std::atomic<uint64_t> query_items_enqueued{0};
  std::atomic<uint64_t> query_items_applied{0};
  // Object flow accounting for Quiesce(): enqueued counts object items
  // whose ring push completed; done counts items this worker fully
  // processed *including* the delivery-sink handoff, so done == enqueued
  // means every pre-barrier match has left the engine.
  std::atomic<uint64_t> object_items_enqueued{0};
  std::atomic<uint64_t> object_items_done{0};
  uint64_t tuples = 0;        // worker-thread local, read after join
  uint64_t dedup_fresh = 0;   // matches this worker delivered (post-dedup)
  uint64_t dedup_kills = 0;   // duplicates the dedup window suppressed
  uint64_t wait_spins = 0;    // flushed from the WaitContext at loop exit
  uint64_t wait_parks = 0;
  LatencyHistogram latency;   // worker-thread local, read after join
};

struct ThreadedEngine::DispatcherState {
  int index = 0;        // which per-worker data ring this dispatcher feeds
  DispatchStats stats;  // thread-local; merged into the report on Stop
  std::vector<WorkerId> scratch;

  // Tuples this dispatcher finished routing (incremented after every
  // worker-ring push for the tuple completed); paired with the submit
  // side's per-dispatcher push counter by Quiesce().
  std::atomic<uint64_t> tuples_routed{0};

  // This dispatcher's input ring and its parked-consumer wakeup.
  EventCount ready;
  std::unique_ptr<SpscRing<SeqTuple>> input;
  uint64_t wait_spins = 0;  // flushed from the WaitContexts at loop exit
  uint64_t wait_parks = 0;

  // Version of the epoch this dispatcher is currently routing an object
  // against; UINT64_MAX when between objects. Stamped *before* the snapshot
  // is pinned, so the pinned snapshot's version is always >= the stamp —
  // the controller waits until every dispatcher's stamp reaches the new
  // epoch before it pushes drain markers, which guarantees that every
  // delivery derived from an older epoch is already in a worker ring.
  std::atomic<uint64_t> routing_epoch{UINT64_MAX};

  // Pinned snapshot, re-pinned only when the published version moves past
  // it — the steady-state object path pays one integer atomic load, not a
  // shared_ptr atomic load (which libstdc++ backs with a spinlock pool).
  std::shared_ptr<const RoutingSnapshot> snapshot;

  // Recent-tuple ring for the controller's Phase-I term statistics. The
  // mutex is dispatcher-local, so it is uncontended except while the
  // controller snapshots the window.
  std::mutex window_mu;
  std::deque<StreamTuple> window;
  size_t window_capacity = 0;

  void RecordWindow(const StreamTuple& t) {
    std::lock_guard<std::mutex> lock(window_mu);
    window.push_back(t);
    if (window.size() > window_capacity) window.pop_front();
  }
};

// ---------------------------------------------------------------------------
// Live migration executor: copy -> publish -> drain -> remove
// ---------------------------------------------------------------------------

// Runs inside ControllerCheck with the writer lock and every worker's Gi2
// lock held. Each movement installs query *copies* at the destination and
// rewrites the master routing; removal of the stale source copies is
// deferred until the pre-swap ring contents have drained (FinishRemovals),
// so an object routed against the old epoch still finds its queries.
class ThreadedEngine::LiveMigrationExecutor : public MigrationExecutor {
 public:
  explicit LiveMigrationExecutor(ThreadedEngine& engine) : engine_(engine) {}

  MigrationStats MigrateCell(CellId cell, WorkerId from,
                             WorkerId to) override {
    MigrationStats stats;
    if (from == to) return stats;
    Cluster& c = engine_.cluster_;
    Gi2Index& src = c.worker(from);
    stats.bytes = src.CellMigrationBytes(cell);
    std::vector<STSQuery> queries = src.CellQueries(cell);
    stats.queries_moved = queries.size();
    const std::vector<CellId> cells{cell};
    for (const auto& q : queries) c.worker(to).InsertIntoCells(q, cells);
    c.router().RemapCellWorker(cell, from, to);
    removals_.push_back({from, [cell](Gi2Index& g) { g.ExtractCell(cell); }});
    changed_ = true;
    return stats;
  }

  MigrationStats TextSplitCell(
      CellId cell, WorkerId keep, WorkerId to,
      const std::unordered_map<TermId, WorkerId>& term_map) override {
    MigrationStats stats;
    Cluster& c = engine_.cluster_;
    GridtIndex& index = c.router();
    std::vector<STSQuery> queries = c.worker(keep).CellQueries(cell);
    index.SetCellTextRoute(cell, term_map, {keep, to});
    std::shared_ptr<const TermRouter> router = index.plan().cells[cell].text;
    const std::vector<CellId> cells{cell};
    for (const auto& q : queries) {
      bool to_other = false;
      for (const TermId t : q.expr.RoutingTerms()) {
        index.AddH2(cell, t, router->Route(t));
        if (router->Route(t) != keep) to_other = true;
      }
      if (to_other) {
        c.worker(to).InsertIntoCells(q, cells);
        stats.queries_moved++;
        stats.bytes += q.MemoryBytes();
      }
    }
    removals_.push_back(
        {keep, [cell, keep, router](Gi2Index& g) {
           // Drop the half that moved: re-index only queries with a term
           // still routed to `keep`.
           const std::vector<CellId> cs{cell};
           for (const auto& q : g.ExtractCell(cell)) {
             for (const TermId t : q.expr.RoutingTerms()) {
               if (router->Route(t) == keep) {
                 g.InsertIntoCells(q, cs);
                 break;
               }
             }
           }
         }});
    changed_ = true;
    return stats;
  }

  MigrationStats MergeCellTo(CellId cell, WorkerId to) override {
    MigrationStats stats;
    Cluster& c = engine_.cluster_;
    const CellRoute& route = c.router().plan().cells[cell];
    std::vector<WorkerId> sources;
    if (route.IsText()) {
      sources = route.text->DistinctWorkers();
    } else {
      sources.push_back(route.worker);
    }
    const std::vector<CellId> cells{cell};
    for (const WorkerId w : sources) {
      if (w == to) continue;
      Gi2Index& src = c.worker(w);
      stats.bytes += src.CellMigrationBytes(cell);
      for (const auto& q : src.CellQueries(cell)) {
        c.worker(to).InsertIntoCells(q, cells);
        stats.queries_moved++;
      }
      removals_.push_back({w, [cell](Gi2Index& g) { g.ExtractCell(cell); }});
    }
    c.router().SetCellSpaceRoute(cell, to);
    changed_ = true;
    return stats;
  }

  bool changed() const { return changed_; }

  // Called after the new epoch is live and all locks are released.
  void FinishRemovals() {
    if (removals_.empty()) return;
    std::vector<WorkerId> affected;
    for (const auto& r : removals_) affected.push_back(r.worker);
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    auto latch = std::make_shared<Latch>(affected.size());
    WaitContext push_wait(WaitStrategy::kBlocking);
    for (const WorkerId w : affected) {
      std::shared_ptr<Latch> marker = latch;
      // A closed ring means the engine is tearing down: its workers have
      // already drained, so the grace period is over by definition.
      if (!engine_.workers_[w]->control->Push(std::move(marker),
                                              push_wait)) {
        latch->CountDown();
      }
    }
    latch->Wait();
    for (const auto& r : removals_) {
      std::lock_guard<std::mutex> lock(engine_.workers_[r.worker]->mu);
      r.fn(engine_.cluster_.worker(r.worker));
    }
    removals_.clear();
  }

 private:
  struct Removal {
    WorkerId worker;
    std::function<void(Gi2Index&)> fn;
  };

  ThreadedEngine& engine_;
  std::vector<Removal> removals_;
  bool changed_ = false;
};

// ---------------------------------------------------------------------------
// Engine lifecycle
// ---------------------------------------------------------------------------

ThreadedEngine::ThreadedEngine(Cluster& cluster, EngineOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      router_(&cluster.router()) {}

ThreadedEngine::~ThreadedEngine() {
  if (running_) Stop();
}

void ThreadedEngine::Start() {
  if (running_) return;
  const int num_workers = cluster_.num_workers();
  const int num_dispatchers = std::max(1, options_.num_dispatchers);
  // Per-dispatcher data rings split the configured capacity, so a worker's
  // total buffered backlog stays at queue_capacity regardless of the
  // dispatcher count.
  const size_t per_ring = std::max<size_t>(
      64, options_.queue_capacity / static_cast<size_t>(num_dispatchers));

  workers_.clear();
  dispatchers_.clear();
  for (int w = 0; w < num_workers; ++w) {
    auto ws = std::make_unique<WorkerState>();
    ws->rings.reserve(num_dispatchers);
    for (int d = 0; d < num_dispatchers; ++d) {
      ws->rings.push_back(
          std::make_unique<SpscRing<WorkItem>>(per_ring, &ws->ready));
    }
    ws->control = std::make_unique<SpscRing<std::shared_ptr<Latch>>>(
        64, &ws->ready);
    workers_.push_back(std::move(ws));
  }
  for (int d = 0; d < num_dispatchers; ++d) {
    auto ds = std::make_unique<DispatcherState>();
    ds->index = d;
    ds->input = std::make_unique<SpscRing<SeqTuple>>(
        std::max<size_t>(64, options_.queue_capacity), &ds->ready);
    ds->window_capacity =
        options_.window_capacity / static_cast<size_t>(num_dispatchers) + 1;
    dispatchers_.push_back(std::move(ds));
  }
  controller_ = std::make_unique<LoadController>(options_.controller.config);
  dedup_ = std::make_unique<ShardedDedupWindow>();

  // Starting the engine opens a fresh load-accounting window: the threaded
  // runtime tracks load in per-worker atomics, and stale synchronous
  // tallies would otherwise masquerade as live loads (e.g. in the
  // adjuster's post-migration balance estimate).
  cluster_.ResetLoadWindow();

  updates_submitted_.store(0);
  updates_published_.store(0);
  migrations_installed_.store(0, std::memory_order_relaxed);
  submitted_objects_ = submitted_inserts_ = submitted_deletes_ = 0;
  submit_pushed_.assign(static_cast<size_t>(num_dispatchers), 0);
  submit_rr_ = 0;
  submit_wait_ = WaitContext(options_.wait_strategy);
  last_check_tuples_ = 0;
  ctl_stop_ = false;
  discard_.store(false, std::memory_order_relaxed);
  start_us_ = NowMicros();
  running_ = true;

  for (int w = 0; w < num_workers; ++w) {
    worker_threads_.emplace_back(&ThreadedEngine::WorkerLoop, this, w);
  }
  for (int d = 0; d < num_dispatchers; ++d) {
    dispatcher_threads_.emplace_back(&ThreadedEngine::DispatchLoop, this,
                                     std::ref(*dispatchers_[d]));
  }
  if (options_.controller.enabled) {
    controller_thread_ = std::thread(&ThreadedEngine::ControllerLoop, this);
  }
}

bool ThreadedEngine::Submit(const StreamTuple& tuple, int64_t publish_us) {
  if (!running_) return false;
  SeqTuple st;
  st.tuple = tuple;
  st.submit_us = publish_us != 0 ? publish_us : NowMicros();
  if (tuple.kind == TupleKind::kObject) {
    st.updates_before = updates_submitted_.load(std::memory_order_relaxed);
    ++submitted_objects_;
  } else {
    st.updates_before =
        updates_submitted_.fetch_add(1, std::memory_order_relaxed);
    if (tuple.kind == TupleKind::kQueryInsert) {
      ++submitted_inserts_;
    } else {
      ++submitted_deletes_;
    }
  }
  // Objects round-robin across the per-dispatcher input rings; query
  // updates all flow through dispatcher 0. Pinning the control plane to one
  // dispatcher keeps updates FIFO end-to-end: the ordering gate never spins
  // for an update (everything it waits on is ahead of it in the same ring),
  // and two updates for the same query land in the same per-worker ring, so
  // the worker applies them in submit order. Striping updates instead would
  // serialize them through a cross-dispatcher ping-pong on the gate — and
  // let a same-query insert/delete pair race through different rings.
  if (tuple.kind != TupleKind::kObject) {
    const bool ok = dispatchers_[0]->input->Push(std::move(st), submit_wait_);
    if (ok) ++submit_pushed_[0];
    return ok;
  }
  const size_t d = submit_rr_;
  DispatcherState& ds = *dispatchers_[d];
  if (++submit_rr_ == dispatchers_.size()) submit_rr_ = 0;
  const bool ok = ds.input->Push(std::move(st), submit_wait_);
  if (ok) ++submit_pushed_[d];
  return ok;
}

void ThreadedEngine::Quiesce() {
  if (!running_) return;
  // Stage 1: every submitted tuple has been routed. tuples_routed is
  // incremented after the last worker-ring push for the tuple (and after
  // the per-worker enqueued counters moved), so once it catches up with
  // the submit-side counter, every downstream enqueue is visible.
  for (size_t d = 0; d < dispatchers_.size(); ++d) {
    while (dispatchers_[d]->tuples_routed.load(std::memory_order_acquire) <
           submit_pushed_[d]) {
      std::this_thread::yield();
    }
  }
  // Stage 2: every enqueued item has been fully processed. For objects,
  // "done" includes the DeliverBatch handoff to the sink, so in-process
  // deliveries are in their sessions and fabric deliveries are on the
  // transport when this returns.
  for (const auto& ws : workers_) {
    while (ws->query_items_applied.load(std::memory_order_acquire) !=
               ws->query_items_enqueued.load(std::memory_order_acquire) ||
           ws->object_items_done.load(std::memory_order_acquire) !=
               ws->object_items_enqueued.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

void ThreadedEngine::JoinAll() {
  if (controller_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(ctl_mu_);
      ctl_stop_ = true;
    }
    ctl_cv_.notify_all();
    controller_thread_.join();
  }
  for (auto& ds : dispatchers_) ds->input->Close();
  for (auto& t : dispatcher_threads_) t.join();
  dispatcher_threads_.clear();
  for (auto& ws : workers_) {
    for (auto& ring : ws->rings) ring->Close();
    ws->control->Close();
  }
  for (auto& t : worker_threads_) t.join();
  worker_threads_.clear();
}

RunReport ThreadedEngine::Stop() {
  if (!running_) return RunReport{};
  JoinAll();
  wall_seconds_ = static_cast<double>(NowMicros() - start_us_) / 1e6;
  running_ = false;
  return AssembleReport();
}

void ThreadedEngine::Abort() {
  if (!running_) return;
  // From here on dispatchers and workers drop what they pop: the rings
  // still drain (so joins cannot hang on a full ring's backpressure), but
  // nothing is processed — queued tuples die as they would in a crash.
  discard_.store(true, std::memory_order_release);
  JoinAll();
  running_ = false;
  discard_.store(false, std::memory_order_release);
}

RunReport ThreadedEngine::Run(const std::vector<StreamTuple>& input) {
  Start();
  for (size_t i = 0; i < input.size(); ++i) {
    if (options_.input_rate_tps > 0.0) {
      // Pace the stream: tuple i is due at i / rate seconds.
      const int64_t due_us =
          start_us_ + static_cast<int64_t>(1e6 * i / options_.input_rate_tps);
      while (NowMicros() < due_us) {
        std::this_thread::yield();
      }
    }
    Submit(input[i]);
  }
  return Stop();
}

void ThreadedEngine::DataPlaneFill(uint64_t* pending,
                                   uint64_t* capacity) const {
  uint64_t p = 0, c = 0;
  if (running_) {
    for (const auto& w : workers_) {
      for (const auto& ring : w->rings) {
        p += ring->pending();
        c += ring->capacity();
      }
    }
  }
  *pending = p;
  *capacity = c;
}

// ---------------------------------------------------------------------------
// Dispatcher threads
// ---------------------------------------------------------------------------

void ThreadedEngine::DispatchLoop(DispatcherState& ds) {
  std::vector<SeqTuple> batch;  // reused across drains
  WaitContext pop_wait(options_.wait_strategy);
  WaitContext push_wait(options_.wait_strategy);
  while (true) {
    batch.clear();
    if (ds.input->PopBatch(options_.batch_size, &batch) == 0) {
      if (ds.input->closed_and_drained()) break;
      pop_wait.Await(ds.ready, [&ds] {
        return !ds.input->Empty() || ds.input->closed();
      });
      continue;
    }
    for (SeqTuple& st : batch) RouteOne(ds, st, push_wait);
  }
  ds.wait_spins = pop_wait.spins() + push_wait.spins();
  ds.wait_parks = pop_wait.parks() + push_wait.parks();
}

void ThreadedEngine::RouteOne(DispatcherState& ds, SeqTuple& st,
                              WaitContext& push_wait) {
  const StreamTuple& tuple = st.tuple;
  // Update-ordering gate: all query updates submitted before this tuple
  // must be enqueued at their workers and published. Updates are a small
  // fraction of the stream, so this spin is almost always a single load.
  while (updates_published_.load(std::memory_order_acquire) <
         st.updates_before) {
    std::this_thread::yield();
  }
  if (discard_.load(std::memory_order_acquire)) {
    // Aborting: drop the tuple, but keep the update-ordering gate moving so
    // dispatchers spinning on it still drain.
    if (tuple.kind != TupleKind::kObject) {
      updates_published_.fetch_add(1, std::memory_order_release);
    }
    ds.tuples_routed.fetch_add(1, std::memory_order_release);
    return;
  }
  const int64_t now = NowMicros();
  if (tuple.kind == TupleKind::kObject) {
    // Epoch handshake with the controller (Dekker pattern — the seq_cst
    // ordering is load-bearing). First announce "routing, epoch unknown"
    // (0), *then* read the version: if the controller's barrier scan saw
    // our idle/newer stamp, this read is ordered after its version store
    // and must observe the new epoch; otherwise the controller sees the 0
    // (or a stale stamp) and waits for us. A plain stamp-after-read could
    // let both sides miss each other through the store buffer, and a
    // delivery routed against the dead epoch could be enqueued behind the
    // drain markers.
    ds.routing_epoch.store(0);
    const uint64_t version = router_.CurrentVersion();
    ds.routing_epoch.store(version, std::memory_order_release);
    if (ds.snapshot == nullptr || ds.snapshot->version < version) {
      ds.snapshot = router_.Current();
    }
    ds.snapshot->RouteObject(tuple.object, &ds.scratch);
    if (ds.scratch.empty()) {
      ++ds.stats.objects_discarded;
    } else {
      ++ds.stats.objects_routed;
      ds.stats.object_deliveries += ds.scratch.size();
      for (const WorkerId w : ds.scratch) {
        WorkItem item;
        item.tuple = tuple;
        item.enqueue_us = now;
        item.submit_us = st.submit_us;
        // Per-worker stamp: how many updates had completed their push to
        // this worker when this object was pushed. The worker defers the
        // object until it has applied that many — every update counted
        // here is already in one of its rings (push before increment), so
        // the deferral always resolves.
        item.updates_before =
            workers_[w]->query_items_enqueued.load(std::memory_order_acquire);
        if (workers_[w]->rings[ds.index]->Push(std::move(item), push_wait)) {
          workers_[w]->object_items_enqueued.fetch_add(
              1, std::memory_order_release);
        }
      }
    }
    ds.routing_epoch.store(UINT64_MAX, std::memory_order_release);
  } else {
    auto routes = tuple.kind == TupleKind::kQueryInsert
                      ? router_.RouteInsert(tuple.query, &update_pushes_)
                      : router_.RouteDelete(tuple.query, &update_pushes_);
    if (tuple.kind == TupleKind::kQueryInsert) {
      ++ds.stats.inserts_routed;
    } else {
      ++ds.stats.deletes_routed;
    }
    for (auto& r : routes) {
      ++ds.stats.query_deliveries;
      WorkItem item;
      item.tuple = tuple;
      item.cells = std::move(r.cells);
      item.enqueue_us = now;
      // Increment *after* the push completes: an object stamped with this
      // count must find the update already in a ring, and the migration
      // barrier (enqueued == applied) must not run ahead of a push still
      // parked on a full ring.
      if (workers_[r.worker]->rings[ds.index]->Push(std::move(item),
                                                    push_wait)) {
        workers_[r.worker]->query_items_enqueued.fetch_add(
            1, std::memory_order_release);
      }
    }
    update_pushes_.fetch_sub(1);
    updates_published_.fetch_add(1, std::memory_order_release);
  }
  ds.tuples_routed.fetch_add(1, std::memory_order_release);
  if (options_.controller.enabled) ds.RecordWindow(tuple);
}

// ---------------------------------------------------------------------------
// Worker threads
// ---------------------------------------------------------------------------

void ThreadedEngine::WorkerLoop(int w) {
  WorkerState& ws = *workers_[w];
  Gi2Index& gi2 = cluster_.worker(w);
  DeliverySink* delivery = options_.delivery;
  const size_t nsrc = ws.rings.size();

  // Per-ring staging: the popped batch plus a cursor. Items are consumed
  // front-to-back (ring FIFO order); a stalled object stays at the cursor
  // while the other rings make progress.
  struct Source {
    std::vector<WorkItem> buf;
    size_t cur = 0;
    size_t left() const { return buf.size() - cur; }
  };
  std::vector<Source> sources(nsrc);

  // Drain markers in flight: each captured, at receipt, how many data
  // items were pending per ring; it acknowledges once those exact items
  // (per-ring FIFO makes them identifiable by count) are consumed. A
  // global count would not do — consuming *newer* items from an already-
  // drained ring must not stand in for older items still queued elsewhere.
  struct PendingMarker {
    std::shared_ptr<Latch> latch;
    std::vector<size_t> targets;
    size_t total = 0;
  };
  std::vector<PendingMarker> pending_markers;
  std::vector<std::shared_ptr<Latch>> ctl_buf;

  // All reused across drains: the object-run pointer list, the match and
  // delivery buffers keep their capacity, so the steady-state object path
  // performs no heap allocation in this loop.
  std::vector<const SpatioTextualObject*> run;
  std::vector<MatchResult> matches;
  std::vector<Delivery> pending;
  WaitContext wait(options_.wait_strategy);

  const auto consumed_from = [&](size_t s, size_t n) {
    for (size_t p = 0; p < pending_markers.size();) {
      PendingMarker& pm = pending_markers[p];
      const size_t dec = std::min(pm.targets[s], n);
      pm.targets[s] -= dec;
      pm.total -= dec;
      if (pm.total == 0) {
        pm.latch->CountDown();
        pending_markers.erase(pending_markers.begin() +
                              static_cast<ptrdiff_t>(p));
      } else {
        ++p;
      }
    }
  };

  // Dedup verdict for one match: the delivery router's sharded window when
  // one is wired, the engine-local fallback otherwise.
  const auto accept_fresh = [&](const MatchResult& m) {
    return delivery != nullptr
               ? delivery->AcceptFresh(m.query_id, m.object_id)
               : dedup_->AcceptFresh(m.query_id, m.object_id);
  };

  // Processes staged items of source `s` until it runs dry or stalls on an
  // unsatisfied update stamp. Returns the number of items consumed.
  const auto process_source = [&](size_t s) -> size_t {
    Source& sc = sources[s];
    const size_t start = sc.cur;
    while (sc.cur < sc.buf.size()) {
      WorkItem& item = sc.buf[sc.cur];
      if (discard_.load(std::memory_order_acquire)) {
        // Aborting: drop the item, but a query update was counted as
        // enqueued when it was routed — the controller's migration barrier
        // spins on applied == enqueued, and Abort() joins the controller
        // first, so the counter must keep moving or the join deadlocks.
        if (item.tuple.kind != TupleKind::kObject) {
          ws.query_items_applied.fetch_add(1);
        } else {
          ws.object_items_done.fetch_add(1, std::memory_order_release);
        }
        ++sc.cur;
        continue;
      }
      if (item.tuple.kind == TupleKind::kObject) {
        const uint64_t applied =
            ws.query_items_applied.load(std::memory_order_relaxed);
        if (item.updates_before > applied) break;  // stall: sweep others
        // Gather the run of consecutive satisfiable objects and match them
        // as one batch: one Gi2 lock acquisition, one cell-grouped index
        // pass. Runs never cross a query update or an unsatisfied stamp —
        // those are ordering boundaries within this ring.
        run.clear();
        size_t end = sc.cur;
        while (end < sc.buf.size() &&
               sc.buf[end].tuple.kind == TupleKind::kObject &&
               sc.buf[end].updates_before <= applied) {
          run.push_back(&sc.buf[end].tuple.object);
          ++end;
        }
        matches.clear();
        {
          std::lock_guard<std::mutex> lock(ws.mu);
          gi2.MatchBatch(run.data(), run.size(), &matches);
        }
        ws.objects.fetch_add(run.size(), std::memory_order_relaxed);
        ws.matches_emitted.fetch_add(matches.size(),
                                     std::memory_order_relaxed);
        if (!matches.empty()) {
          pending.clear();
          // Resolves a match's publish timestamp from the run items.
          // MatchBatch groups output by cell, so consecutive matches tend
          // to repeat objects: memoize the last hit and scan circularly.
          const size_t i0 = sc.cur;
          size_t probe = i0;
          const auto submit_of = [&](ObjectId id) {
            const size_t n = end - i0;
            for (size_t k = 0; k < n; ++k) {
              const size_t idx = i0 + (probe - i0 + k) % n;
              if (sc.buf[idx].tuple.object.id == id) {
                probe = idx;
                return sc.buf[idx].submit_us;
              }
            }
            return sc.buf[i0].submit_us;  // unreachable: every match's object is in the run
          };
          // Per-shard dedup, no global lock.
          for (const auto& m : matches) {
            if (!accept_fresh(m)) {
              ++ws.dedup_kills;
              continue;
            }
            ++ws.dedup_fresh;
            if (delivery == nullptr) continue;
            Delivery d;
            d.query_id = m.query_id;
            d.object_id = m.object_id;
            d.publish_us = submit_of(m.object_id);
            d.score = m.score;
            d.expire_us = m.expire_us;
            pending.push_back(d);
          }
          // Deliver outside all engine locks: a kBlock session may block
          // this worker on a full queue, and that must stall only this
          // worker.
          if (!pending.empty()) {
            delivery->DeliverBatch(pending.data(), pending.size());
          }
        }
        const int64_t done_us = NowMicros();
        for (size_t k = sc.cur; k < end; ++k) {
          ws.tuples++;
          ws.latency.Record(
              static_cast<double>(done_us - sc.buf[k].enqueue_us));
        }
        // After the sink handoff: Quiesce()'s done == enqueued then implies
        // every pre-barrier match has left the engine.
        ws.object_items_done.fetch_add(end - sc.cur,
                                       std::memory_order_release);
        sc.cur = end;
        continue;
      }
      if (item.tuple.kind == TupleKind::kQueryInsert) {
        {
          std::lock_guard<std::mutex> lock(ws.mu);
          gi2.InsertIntoCells(item.tuple.query, item.cells);
        }
        ws.inserts.fetch_add(1, std::memory_order_relaxed);
      } else {
        {
          std::lock_guard<std::mutex> lock(ws.mu);
          gi2.Delete(item.tuple.query.id);
        }
        ws.deletes.fetch_add(1, std::memory_order_relaxed);
      }
      ws.query_items_applied.fetch_add(1);
      ws.tuples++;
      ws.latency.Record(static_cast<double>(NowMicros() - item.enqueue_us));
      ++sc.cur;
    }
    const size_t consumed = sc.cur - start;
    if (consumed > 0 && !pending_markers.empty()) {
      consumed_from(s, consumed);
    }
    return consumed;
  };

  while (true) {
    bool progress = false;
    // Control ring first: a drain marker captures the currently pending
    // data counts, so handling it before the data sweep keeps the captured
    // window tight.
    ctl_buf.clear();
    if (ws.control->PopBatch(8, &ctl_buf) > 0) {
      progress = true;
      for (auto& latch : ctl_buf) {
        PendingMarker pm;
        pm.latch = std::move(latch);
        pm.targets.resize(nsrc);
        for (size_t s = 0; s < nsrc; ++s) {
          pm.targets[s] = sources[s].left() + ws.rings[s]->pending();
          pm.total += pm.targets[s];
        }
        if (pm.total == 0) {
          pm.latch->CountDown();
        } else {
          pending_markers.push_back(std::move(pm));
        }
      }
    }
    for (size_t s = 0; s < nsrc; ++s) {
      Source& sc = sources[s];
      if (sc.cur == sc.buf.size()) {
        sc.buf.clear();
        sc.cur = 0;
        if (ws.rings[s]->PopBatch(options_.batch_size, &sc.buf) == 0) {
          continue;
        }
      }
      if (process_source(s) > 0) progress = true;
    }
    if (progress) continue;
    bool buffered = false;
    for (const auto& sc : sources) {
      if (sc.left() > 0) buffered = true;
    }
    if (buffered) {
      // Every staged head is an object stalled on an update stamp. The
      // pending update is in one of this worker's rings (pushes complete
      // before they are counted), so the next sweep will reach it; yield
      // rather than park so its arrival in a pop is not missed.
      std::this_thread::yield();
      continue;
    }
    // Nothing staged, nothing popped: exit once every ring is closed and
    // drained, otherwise park until a producer pushes or closes.
    bool all_done = ws.control->closed_and_drained();
    for (size_t s = 0; all_done && s < nsrc; ++s) {
      if (!ws.rings[s]->closed_and_drained()) all_done = false;
    }
    if (all_done) break;
    wait.Await(ws.ready, [&] {
      if (!ws.control->Empty() || ws.control->closed()) return true;
      for (size_t s = 0; s < nsrc; ++s) {
        if (!ws.rings[s]->Empty() || ws.rings[s]->closed()) return true;
      }
      return false;
    });
  }
  // Defensive: a marker whose remaining targets died with discarded items
  // must still acknowledge, or Abort() could wedge a waiting controller.
  for (auto& pm : pending_markers) pm.latch->CountDown();
  ws.wait_spins = wait.spins();
  ws.wait_parks = wait.parks();
}

// ---------------------------------------------------------------------------
// Controller thread
// ---------------------------------------------------------------------------

void ThreadedEngine::ControllerLoop() {
  std::unique_lock<std::mutex> lock(ctl_mu_);
  while (!ctl_stop_) {
    ctl_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.controller.interval_ms));
    if (ctl_stop_) break;
    lock.unlock();
    ControllerCheck();
    lock.lock();
  }
}

void ThreadedEngine::ControllerCheck() {
  const auto& ctl = options_.controller;
  const CostModel& cm = ctl.config.adjust.cost;

  // Live per-worker tallies -> Definition-1 loads.
  uint64_t total_tuples = 0;
  std::vector<double> loads;
  std::vector<WorkerLoadTally> tallies;
  loads.reserve(workers_.size());
  tallies.reserve(workers_.size());
  for (const auto& ws : workers_) {
    WorkerLoadTally t;
    t.objects = ws->objects.load(std::memory_order_relaxed);
    t.inserts = ws->inserts.load(std::memory_order_relaxed);
    t.deletes = ws->deletes.load(std::memory_order_relaxed);
    total_tuples += t.objects + t.inserts + t.deletes;
    loads.push_back(WorkerLoad(cm, t));
    tallies.push_back(t);
  }
  if (total_tuples - last_check_tuples_ < ctl.min_tuples) return;
  last_check_tuples_ = total_tuples;
  if (BalanceFactor(loads) <= ctl.config.adjust.sigma) return;

  // Phase-I statistics from the dispatcher-local windows.
  WorkloadSample window;
  for (const auto& ds : dispatchers_) {
    std::lock_guard<std::mutex> lock(ds->window_mu);
    for (const StreamTuple& t : ds->window) {
      switch (t.kind) {
        case TupleKind::kObject:
          window.objects.push_back(t.object);
          break;
        case TupleKind::kQueryInsert:
          window.inserts.push_back(t.query);
          break;
        case TupleKind::kQueryDelete:
          window.deletes.push_back(t.query);
          break;
      }
    }
  }

  // Decide + copy phase under the writer lock and every worker's Gi2 lock:
  // dispatchers keep routing objects against the previous epoch, workers
  // stall briefly (the paper models exactly this migration stall). The new
  // table is then built off-thread and installed with one atomic swap.
  LiveMigrationExecutor exec(*this);
  TouchTrackingExecutor tracked(exec);
  const bool published = router_.Mutate([&](GridtIndex& m) {
    // Migration barrier, part 1: the writer lock (held here) blocks new
    // query updates from routing; wait until the ones already routed are
    // enqueued and applied, so the copy phase sees every query.
    while (update_pushes_.load() != 0) std::this_thread::yield();
    for (const auto& ws : workers_) {
      while (ws->query_items_applied.load() !=
             ws->query_items_enqueued.load()) {
        std::this_thread::yield();
      }
    }
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(workers_.size());
    for (const auto& ws : workers_) locks.emplace_back(ws->mu);
    controller_->Check(cluster_, loads, window, tracked);
    // Journal the installed migrations before the writer lock is released:
    // a concurrent checkpoint (which rotates the WAL, then copies the plan
    // under this same lock) then either sees the new routes in its plan
    // copy or finds these records in its WAL segment — never neither. The
    // records are absolute resulting routes, so replaying them onto an
    // already-migrated plan is idempotent.
    if (exec.changed() && options_.wal != nullptr) {
      options_.wal->AppendCellRoutes(tracked.touched_cells(), m.plan(),
                                     cluster_.vocab());
    }
    return exec.changed();
  });
  // Advisory global evaluation runs outside the critical section: it
  // builds a whole candidate plan, far too slow to hold the routing writer
  // lock and worker locks for. It reads only the plan (mutated solely by
  // this thread) and the window copy.
  controller_->MaybeEvaluateGlobal(cluster_, window);
  if (!published) return;
  migrations_installed_.fetch_add(1, std::memory_order_relaxed);

  // Migration barrier, part 2: wait until no dispatcher is still routing
  // an object against an older epoch, so every old-epoch delivery is in a
  // worker ring before the drain markers go in behind them.
  const uint64_t version = router_.CurrentVersion();
  for (const auto& ds : dispatchers_) {
    // seq_cst load: the other half of the dispatchers' epoch handshake.
    while (ds->routing_epoch.load() < version) {
      std::this_thread::yield();
    }
  }

  // Grace period: wait for everything routed against the old epoch to
  // drain, then remove the stale source copies.
  exec.FinishRemovals();

  // Start a fresh load-accounting window, as after a paper migration.
  // Subtract the counts this check observed rather than zeroing: the worker
  // threads kept incrementing concurrently and those increments belong to
  // the new window.
  for (size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->objects.fetch_sub(tallies[w].objects,
                                   std::memory_order_relaxed);
    workers_[w]->inserts.fetch_sub(tallies[w].inserts,
                                   std::memory_order_relaxed);
    workers_[w]->deletes.fetch_sub(tallies[w].deletes,
                                   std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(workers_[w]->mu);
    cluster_.worker(static_cast<WorkerId>(w)).ResetObjectCounters();
  }
  last_check_tuples_ = 0;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

RunReport ThreadedEngine::AssembleReport() {
  RunReport report;
  report.wall_seconds = wall_seconds_;
  wall_seconds_ = 0.0;
  report.objects = submitted_objects_;
  report.inserts = submitted_inserts_;
  report.deletes = submitted_deletes_;
  report.tuples_processed =
      submitted_objects_ + submitted_inserts_ + submitted_deletes_;
  report.throughput_tps = report.wall_seconds > 0
                              ? report.tuples_processed / report.wall_seconds
                              : 0.0;
  report.wait_spins = submit_wait_.spins();
  report.wait_parks = submit_wait_.parks();
  for (const auto& ws : workers_) {
    report.matches_emitted +=
        ws->matches_emitted.load(std::memory_order_relaxed);
    report.matches_delivered += ws->dedup_fresh;
    report.duplicates_suppressed += ws->dedup_kills;
    report.dedup_kills += ws->dedup_kills;
    report.wait_spins += ws->wait_spins;
    report.wait_parks += ws->wait_parks;
  }
  for (const auto& ds : dispatchers_) {
    report.dispatch.Merge(ds->stats);
    report.wait_spins += ds->wait_spins;
    report.wait_parks += ds->wait_parks;
  }
  report.objects_discarded = report.dispatch.objects_discarded;
  for (size_t w = 0; w < workers_.size(); ++w) {
    report.latency.Merge(workers_[w]->latency);
    report.per_worker_tuples.push_back(workers_[w]->tuples);
    report.worker_memory_bytes.push_back(
        cluster_.WorkerMemoryBytes(static_cast<WorkerId>(w)));
    uint64_t highwater = 0;
    for (const auto& ring : workers_[w]->rings) {
      highwater = std::max(highwater, ring->highwater());
    }
    report.worker_ring_highwater.push_back(highwater);
  }
  report.dispatcher_memory_bytes = cluster_.DispatcherMemoryBytes();
  if (controller_ != nullptr) {
    const LoadController::Totals& t = controller_->totals();
    report.adjustments = t.adjustments;
    report.cells_migrated = t.cells_moved;
    report.queries_migrated = t.queries_moved;
    report.bytes_migrated = t.bytes_moved;
  }
  report.routing_epochs = router_.version();
  return report;
}

}  // namespace ps2
