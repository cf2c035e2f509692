#ifndef PS2_RUNTIME_CLUSTER_H_
#define PS2_RUNTIME_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/cost_model.h"
#include "core/query.h"
#include "dispatch/dispatcher.h"
#include "dispatch/gridt_index.h"
#include "index/gi2.h"
#include "partition/plan.h"

namespace ps2 {

struct ClusterOptions {
  Gi2Index::Options worker_index;
};

// Outcome of moving one cell's queries between workers.
struct MigrationStats {
  size_t queries_moved = 0;
  size_t bytes = 0;
};

// The logical PS2Stream cluster: one routing index (shared by all
// dispatchers), one GI2 per worker, and a per-object duplicate filter in
// the merger's place (Figure 1). This class is the *synchronous* core —
// tuples are processed inline — used directly by tests, the simulator and
// the load adjusters; ThreadedEngine runs the same cluster across real
// threads for wall-clock throughput/latency.
class Cluster {
 public:
  Cluster(PartitionPlan plan, const Vocabulary* vocab,
          ClusterOptions options = ClusterOptions());

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Processes one tuple end to end: Route, then Apply every delivery. For
  // objects, the matches are appended to `delivered` when non-null.
  void Process(const StreamTuple& tuple,
               std::vector<MatchResult>* delivered = nullptr);

  // Routes one tuple and opens its duplicate filter. Callers that need
  // per-delivery control (the simulator's service-time accounting) Route,
  // then Apply each returned delivery in order before routing the next
  // tuple. The vector is reused by the next Route/Process call.
  const std::vector<Dispatcher::Delivery>& Route(const StreamTuple& tuple);

  // Applies one routed delivery of the last routed tuple to its worker,
  // updating load tallies. For an object, a match is dropped (and counted
  // in duplicates_suppressed()) if, and only if, an earlier delivery of the
  // same tuple already emitted its query: a query stored on several
  // workers (wide regions, multi-term text routing) matches once per
  // worker the object reaches. One worker never emits a query twice.
  void Apply(const StreamTuple& tuple, const Dispatcher::Delivery& delivery,
             std::vector<MatchResult>* delivered = nullptr);

  // Cross-worker duplicates Apply dropped over the cluster's lifetime.
  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }

  // --- components ----------------------------------------------------------
  GridtIndex& router() { return index_; }
  const GridtIndex& router() const { return index_; }
  Dispatcher& dispatcher() { return dispatcher_; }
  Gi2Index& worker(WorkerId w) { return workers_[w]; }
  const Gi2Index& worker(WorkerId w) const { return workers_[w]; }
  const Vocabulary& vocab() const { return *vocab_; }

  // --- load accounting (Definition 1 window) -------------------------------
  const std::vector<WorkerLoadTally>& tallies() const { return tallies_; }
  std::vector<double> WorkerLoads(const CostModel& cm) const;
  // Clears tallies and per-cell object counters (start of a new window).
  void ResetLoadWindow();

  // --- migration primitives (used by the load adjusters) -------------------
  using MigrationStats = ps2::MigrationStats;

  // Moves worker `from`'s share of `cell` to worker `to` (queries + routing).
  MigrationStats MigrateCell(CellId cell, WorkerId from, WorkerId to);

  // Turns the space-routed `cell` (owned by `keep`) into a text-routed cell
  // split by `term_map` across {keep, to}; queries are redistributed.
  // Returns the bytes shipped to `to`.
  MigrationStats TextSplitCell(CellId cell, WorkerId keep, WorkerId to,
                               const std::unordered_map<TermId, WorkerId>&
                                   term_map);

  // Collapses `cell` (text- or space-routed) onto a single worker `to`,
  // moving every other worker's share there.
  MigrationStats MergeCellTo(CellId cell, WorkerId to);

  // --- memory ---------------------------------------------------------------
  size_t DispatcherMemoryBytes() const { return index_.MemoryBytes(); }
  size_t WorkerMemoryBytes(WorkerId w) const {
    return workers_[w].MemoryBytes();
  }

 private:
  const Vocabulary* vocab_;
  GridtIndex index_;
  Dispatcher dispatcher_;
  std::vector<Gi2Index> workers_;
  std::vector<WorkerLoadTally> tallies_;
  std::vector<Dispatcher::Delivery> scratch_deliveries_;
  std::vector<MatchResult> scratch_matches_;
  // Per-tuple duplicate filter: the sorted query ids earlier deliveries of
  // the routed tuple emitted. Unused when the tuple reaches one worker.
  std::vector<QueryId> emitted_;
  uint64_t duplicates_suppressed_ = 0;
};

}  // namespace ps2

#endif  // PS2_RUNTIME_CLUSTER_H_
