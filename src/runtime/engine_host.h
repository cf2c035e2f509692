#ifndef PS2_RUNTIME_ENGINE_HOST_H_
#define PS2_RUNTIME_ENGINE_HOST_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "adjust/load_controller.h"
#include "api/delivery.h"
#include "api/delivery_sink.h"
#include "api/status.h"
#include "core/workload_stats.h"
#include "persist/durability.h"
#include "runtime/threaded_engine.h"

namespace ps2 {

// One engine unit: a Cluster (the synchronous core), the ThreadedEngine
// running it while started, the optional DurabilityManager journaling its
// mutations, and the DeliverySink its dedup-fresh matches go to. The
// single-engine PS2Stream facade runs one host with its DeliveryRouter as
// the sink; every shard of the fabric runs one with its egress as the sink.
//
// The host makes every local-engine decision, so callers never branch on
// the execution mode:
//   - WAL-before-apply: a mutation is journaled before it can take effect;
//   - started -> Submit to the engine, stopped -> Process inline (and, for
//     objects, deliver the fresh matches through the sink before
//     returning);
//   - synchronous-mode load adjustment over a window of recent tuples (the
//     started engine runs EngineOptions::controller instead).
// Callers keep what only they know: the subscription and placement
// registries, session routing, id counters and top-k state.
//
// Control-plane only: every method runs on the thread driving the caller's
// control plane (the facade thread), like PS2Stream and ShardedEngine.
class EngineHost {
 public:
  struct Options {
    ClusterOptions cluster;
    // Local load adjustment in both modes. Stopped: every
    // adjust_check_interval inline tuples, a LoadController checks the
    // cluster against the last window_capacity tuples and executes its
    // migrations inline. Started: the engine's controller thread runs the
    // same config (EngineOptions::controller), installing migrations live.
    bool auto_adjust = false;
    size_t adjust_check_interval = 100000;
    LocalAdjustConfig adjust;
    // Recent-tuple window of both modes (EngineOptions::window_capacity).
    size_t window_capacity = 1 << 16;
  };

  // `vocab` and `sink` are borrowed and must outlive the host.
  EngineHost(Options options, const Vocabulary* vocab, DeliverySink* sink);

  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  // The plan a fresh deployment starts from: `partitioner` built over
  // `sample`, or — with no sample or an unknown partitioner — a uniform
  // grid assignment so the service still works (the first global
  // adjustment can fix it later).
  static PartitionPlan BuildPlan(const std::string& partitioner,
                                 const WorkloadSample& sample,
                                 const Vocabulary& vocab,
                                 const PartitionConfig& config);

  // --- lifecycle --------------------------------------------------------------
  // Stands the cluster up over `plan`, with no queries.
  void Bootstrap(PartitionPlan plan);
  // Makes a freshly bootstrapped host durable at config.dir: the current
  // state (vocabulary + plan, no queries) becomes checkpoint zero and the
  // WAL opens behind it. When the directory refuses (e.g. it already holds
  // another incarnation's state) the host stays non-durable (durable()).
  void InitDurability(const DurabilityConfig& config, QueryId next_query_id,
                      ObjectId next_object_id);
  // Rebuilds the host from an already loaded state: a cluster over
  // state.plan with every state.queries entry re-inserted, then logging
  // resumes at config.dir behind the replayed WAL chain. False when
  // logging cannot resume: the cluster is rebuilt either way, but the host
  // is non-durable and the caller decides whether that is fatal.
  bool Recover(const RecoveredState& state, const DurabilityConfig& config);

  // --- mutations (WAL-before-apply, then Submit or inline Process) -----------
  Status Subscribe(const STSQuery& query);
  Status Unsubscribe(const STSQuery& query);
  // Moves `query` (same id) to its new region. With `old_region` the old
  // placement is deleted first — a same-id insert would bind the live index
  // slot instead of a fresh one; without it (the query is not indexed here
  // yet) this is a journaled insert.
  Status Update(const STSQuery& query, const Rect* old_region);
  // Matches `object`; `publish_us` is the publish stamp delivery latency is
  // measured from. Stopped: the fresh matches reach the sink before this
  // returns. kUnavailable when the engine stopped mid-submit.
  Status Post(const SpatioTextualObject& object, int64_t publish_us);

  // --- engine -----------------------------------------------------------------
  // Spawns a ThreadedEngine over the cluster with this host's adjustment
  // settings, journaling its migrations to this host's WAL and delivering
  // through its sink.
  void Start(EngineOptions options);
  // Drains, stops and releases the engine.
  RunReport Stop();
  // Crash: tears the engine down without draining and abandons the WAL's
  // unwritten batch, as a dying process would. The host is non-durable
  // afterwards.
  void Abort();
  // Tears the engine down without draining and closes the WAL gracefully
  // (a shard being restarted or quarantined).
  void Halt();
  bool started() const { return engine_ != nullptr && engine_->running(); }

  // --- durability -------------------------------------------------------------
  // Checkpoints the host's state: its plan (captured after the WAL rotates,
  // so no migration journaled to the old segment is missed) plus the
  // caller's id counters, live queries and top-k heaps. False when the
  // host is not durable or the checkpoint failed.
  bool Checkpoint(QueryId next_query_id, ObjectId next_object_id,
                  std::vector<const STSQuery*> queries,
                  const TopKCheckpoint* topk);
  bool ShouldCheckpoint() const {
    return durability_ != nullptr && durability_->ShouldCheckpoint();
  }
  // Open and no sticky WAL I/O error.
  bool durable() const {
    return durability_ != nullptr && durability_->healthy();
  }

  // --- introspection ----------------------------------------------------------
  // Live SPSC-ring occupancy of the started engine; zeros when stopped.
  void DataPlaneFill(uint64_t* pending, uint64_t* capacity) const;
  Cluster& cluster() { return *cluster_; }
  const Cluster& cluster() const { return *cluster_; }
  // The started engine; nullptr once stopped or torn down.
  ThreadedEngine* engine() { return engine_.get(); }
  DurabilityManager* durability() { return durability_.get(); }
  const std::vector<AdjustReport>& adjustments() const {
    return adjustments_;
  }

 private:
  // Submits `tuple` to the started engine, or processes it inline and feeds
  // the synchronous adjustment window.
  void Apply(const StreamTuple& tuple);
  // Fills `view`'s plan (and, when `config` asks for it, the routing
  // snapshot) from the live engine or the cluster; `plan` and `snapshot`
  // own what the view points at.
  void CaptureRouting(const DurabilityConfig& config, CheckpointView* view,
                      PartitionPlan* plan,
                      std::shared_ptr<const RoutingSnapshot>* snapshot);
  void Track(const StreamTuple& tuple);
  void MaybeAutoAdjust();

  Options options_;
  const Vocabulary* vocab_;
  DeliverySink* sink_;
  // Declared so the engine is destroyed (a running one drains) before the
  // WAL it journals to and the cluster it runs.
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DurabilityManager> durability_;
  std::unique_ptr<ThreadedEngine> engine_;
  // Synchronous Post scratch, reused across calls.
  std::vector<MatchResult> fresh_;
  std::vector<Delivery> staged_;
  // Synchronous adjustment window (options_.auto_adjust only).
  std::unique_ptr<LoadController> controller_;
  std::deque<StreamTuple> window_;
  size_t tuples_since_check_ = 0;
  std::vector<AdjustReport> adjustments_;
};

}  // namespace ps2

#endif  // PS2_RUNTIME_ENGINE_HOST_H_
