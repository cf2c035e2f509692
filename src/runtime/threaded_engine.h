#ifndef PS2_RUNTIME_THREADED_ENGINE_H_
#define PS2_RUNTIME_THREADED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/dedup_window.h"
#include "common/wait_strategy.h"
#include "dispatch/routing_snapshot.h"
#include "runtime/engine.h"

namespace ps2 {

// The wall-clock runtime: real dispatcher and worker threads over one
// Cluster — the measured counterpart of the paper's Storm deployment.
//
// Concurrency story:
//   - Every queue hop is a lock-free SPSC ring (runtime/spsc_ring.h):
//     Submit() round-robins tuples across per-dispatcher input rings, and
//     each worker owns one data ring per dispatcher plus a control ring for
//     the controller's drain markers. Idle stages park through EventCounts
//     per the configured WaitStrategy (block / adaptive-spin / busy-poll).
//   - Object routing is lock-free: dispatcher threads route against the
//     current immutable RoutingSnapshot (one atomic shared_ptr load).
//   - Query inserts/deletes serialize on the SnapshotRouter's writer lock,
//     mutate the master gridt index and incrementally republish the cells
//     they touched.
//   - An *update-ordering gate* keeps routing causally consistent with the
//     submission order: every tuple is stamped with the number of query
//     updates submitted before it, and no tuple routes until that many
//     updates have been enqueued to workers and published. On top of that,
//     each object work item carries a per-worker stamp (that worker's
//     query-items-enqueued count at push time) so the worker never matches
//     an object before applying the updates that preceded it — rings from
//     different dispatchers would otherwise reorder updates vs. objects.
//     A worker that hits an unsatisfied stamp leaves the item at its ring's
//     head and sweeps its other rings; the pending update is always
//     reachable there (a blocked cycle would require an update pushed
//     before itself), so the stall resolves without spinning.
//   - The match path has one duplicate filter: each worker deduplicates its
//     matches through the delivery sink's sharded (query, object) window
//     (or an engine-local one when no sink is wired) and delivers straight
//     to the subscriber sessions — no cross-worker serialization point.
//   - The optional controller thread runs the LoadController against live
//     per-worker tallies. Migrations install live: query copies are placed
//     at the destination first, the post-migration routing table is built
//     off-thread and swapped in atomically, drain markers flush the
//     source's in-flight rings, and only then are the stale source copies
//     removed — no delivery is lost, transient duplicates die in the
//     delivery-router window.
class ThreadedEngine : public Engine {
 public:
  explicit ThreadedEngine(Cluster& cluster,
                          EngineOptions options = EngineOptions());
  ~ThreadedEngine() override;

  ThreadedEngine(const ThreadedEngine&) = delete;
  ThreadedEngine& operator=(const ThreadedEngine&) = delete;

  std::string name() const override { return "threaded"; }

  // Start + paced Submit of the whole stream + Stop.
  RunReport Run(const std::vector<StreamTuple>& input) override;

  // --- async facade (PS2Stream::Start/Stop build on these) ------------------
  // Spawns dispatcher, worker and (if configured) controller threads.
  void Start();
  // Enqueues one tuple; blocks under backpressure. Single producer. Returns
  // false once the engine stopped. `publish_us` is the publish timestamp
  // delivery latency is measured from; 0 (the default) stamps the current
  // time — the shard fabric passes the front-end's stamp through so the
  // metric covers the whole cross-shard path.
  bool Submit(const StreamTuple& tuple, int64_t publish_us = 0);
  // Blocks until everything submitted before this call is fully processed:
  // routed by the dispatchers, applied by the workers, and (for matches)
  // handed to the delivery sink. The engine keeps running. Must be called
  // from the submitting thread (single producer — a concurrent Submit would
  // make "everything submitted before" a moving target); safe against the
  // controller thread. The shard fabric's cross-shard migration uses this
  // as its drain barrier before removing a migrated cell's source copies.
  void Quiesce();
  // Drains in-flight work, joins all threads and reports the run.
  RunReport Stop();
  // Hard stop: tears the engine down *without* draining — queued tuples are
  // discarded, no report is assembled. This models a crash for the
  // durability subsystem (recovery must reconstruct everything from the WAL
  // and checkpoints alone); threads are still joined so the process stays
  // sane.
  void Abort();
  bool running() const { return running_; }

  // --- introspection --------------------------------------------------------
  std::shared_ptr<const RoutingSnapshot> routing_snapshot() const {
    return router_.Current();
  }
  // Consistent copy of the live routing plan (H1 + installed migrations),
  // taken under the routing writer lock; the facade checkpoints through
  // this.
  PartitionPlan PlanCopy() { return router_.PlanCopy(); }
  // Valid after Start(); survives Stop() for post-run inspection. The
  // controller's own totals are only safe to read after Stop()/Abort()
  // joined the controller thread; while running, poll
  // migrations_installed() instead.
  const LoadController* controller() const { return controller_.get(); }
  // Number of controller checks that installed (and published) migrations,
  // readable from any thread while the engine runs.
  uint64_t migrations_installed() const {
    return migrations_installed_.load(std::memory_order_relaxed);
  }
  // Live aggregate occupancy of the per-worker SPSC data rings: queued
  // items and total capacity summed over every ring. The overload
  // controller's data-plane pressure signal. Safe from the submitting
  // thread while the engine runs (ring cursors are atomics); zeros when
  // stopped.
  void DataPlaneFill(uint64_t* pending, uint64_t* capacity) const;

 private:
  struct Latch;
  struct WorkItem;
  struct SeqTuple;
  struct WorkerState;
  struct DispatcherState;
  class LiveMigrationExecutor;

  void DispatchLoop(DispatcherState& ds);
  void RouteOne(DispatcherState& ds, SeqTuple& st, WaitContext& push_wait);
  void WorkerLoop(int w);
  void ControllerLoop();
  void ControllerCheck();
  // Shared Stop()/Abort() teardown: stops the controller first (so no
  // drain marker races the ring close), then closes and joins the
  // dispatcher and worker stages in pipeline order.
  void JoinAll();
  RunReport AssembleReport();

  Cluster& cluster_;
  EngineOptions options_;
  SnapshotRouter router_;
  std::unique_ptr<LoadController> controller_;

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::unique_ptr<DispatcherState>> dispatchers_;
  std::vector<std::thread> worker_threads_;
  std::vector<std::thread> dispatcher_threads_;
  std::thread controller_thread_;

  // Fallback (query, object) dedup window used when no delivery router is
  // wired (bench/test engines); with a router, dedup lives in the router so
  // synchronous and threaded traffic share one window.
  std::unique_ptr<ShardedDedupWindow> dedup_;

  // Update-ordering gate (see class comment).
  std::atomic<uint64_t> updates_submitted_{0};
  std::atomic<uint64_t> updates_published_{0};
  // Query updates routed but whose deliveries are not yet all enqueued;
  // part of the controller's migration barrier.
  std::atomic<int> update_pushes_{0};
  std::atomic<uint64_t> migrations_installed_{0};

  // Submit-side state (single producer).
  uint64_t submitted_objects_ = 0;
  uint64_t submitted_inserts_ = 0;
  uint64_t submitted_deletes_ = 0;
  // Tuples pushed per dispatcher; paired with each dispatcher's
  // tuples_routed counter by Quiesce(). Plain (submit thread only).
  std::vector<uint64_t> submit_pushed_;
  size_t submit_rr_ = 0;
  WaitContext submit_wait_{WaitStrategy::kBlocking};

  std::mutex ctl_mu_;
  std::condition_variable ctl_cv_;
  bool ctl_stop_ = false;
  uint64_t last_check_tuples_ = 0;

  // Atomic: the facade's producer thread may call Submit()/running() while
  // another thread drives Stop().
  std::atomic<bool> running_{false};
  // Set by Abort(): dispatcher and worker loops drop items instead of
  // processing them so teardown is immediate.
  std::atomic<bool> discard_{false};
  int64_t start_us_ = 0;
  double wall_seconds_ = 0.0;
};

}  // namespace ps2

#endif  // PS2_RUNTIME_THREADED_ENGINE_H_
