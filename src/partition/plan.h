#ifndef PS2_PARTITION_PLAN_H_
#define PS2_PARTITION_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cost_model.h"
#include "core/workload_stats.h"
#include "spatial/grid.h"
#include "text/vocabulary.h"

namespace ps2 {

using WorkerId = int32_t;

// Maps terms to workers inside one text-partitioned region (one Ti
// assignment of Definition 2 restricted to a subspace). Terms absent from
// the explicit map (unseen during partitioning) fall back to a hash over the
// participating workers, so routing is total and objects/queries carrying a
// brand-new term still rendezvous at the same worker.
class TermRouter {
 public:
  TermRouter(std::unordered_map<TermId, WorkerId> map,
             std::vector<WorkerId> workers);

  WorkerId Route(TermId t) const;

  // The hash-fallback table: every worker this router can return, in the
  // positions Route() hashes into. A worker appears twice after
  // GridtIndex::RemapCellWorker moves a share onto another participant.
  const std::vector<WorkerId>& workers() const { return workers_; }

  // The region's worker set: workers(), sorted and deduplicated.
  std::vector<WorkerId> DistinctWorkers() const;

  // The explicit term assignments (H1 content of the region).
  const std::unordered_map<TermId, WorkerId>& term_map() const { return map_; }

  size_t map_size() const { return map_.size(); }
  size_t MemoryBytes() const;

 private:
  std::unordered_map<TermId, WorkerId> map_;
  std::vector<WorkerId> workers_;
};

// Routing rule for one grid cell: either the whole cell belongs to a single
// worker (space-routed, "sent without checking the textual content") or a
// TermRouter splits it by text. Text routers are shared across all cells of
// the kdt-tree leaf they came from.
struct CellRoute {
  WorkerId worker = 0;
  std::shared_ptr<const TermRouter> text;  // non-null => text-routed

  bool IsText() const { return text != nullptr; }
};

// The output of every partitioner (Definition 2's (Si, Ti) pairs), encoded
// per grid cell. This is the paper's "gridt index can be built from the
// kdt-tree" representation: the dispatcher evaluates routing in O(1) grid
// lookup + O(#terms) instead of traversing a tree.
struct PartitionPlan {
  GridSpec grid;
  int num_workers = 0;
  std::vector<CellRoute> cells;  // size == grid.NumCells()

  // Workers an object must be sent to: the cell containing o.loc decides;
  // text-routed cells fan out one worker per distinct term (deduplicated).
  void RouteObject(const SpatioTextualObject& o,
                   std::vector<WorkerId>* out) const;

  // Workers a query insert/delete must be sent to, along with the cells the
  // query should be indexed in *at that worker*. Text-routed cells route by
  // the query's routing terms (the clause chosen at admission; the paper's
  // "least frequent keyword" generalized to CNF).
  struct QueryRoute {
    WorkerId worker = 0;
    std::vector<CellId> cells;
  };
  // `overlap_scratch`, when non-null, is used for the cell-overlap list and
  // holds q.region's overlapping cells on return — callers that need the
  // overlap anyway (H2 maintenance) reuse it instead of recomputing, and
  // repeated routing stops reallocating the list.
  void RouteQuery(const STSQuery& q, std::vector<QueryRoute>* out,
                  std::vector<CellId>* overlap_scratch = nullptr) const;

  // Approximate dispatcher-side footprint of the routing structure.
  size_t MemoryBytes() const;

  // Number of text-routed cells (diagnostics / Fig 9 analysis).
  size_t NumTextCells() const;
};

// Per-worker load report for a plan evaluated on a workload sample using
// Definition 1. Partitioners use this to compare candidate plans; the
// benchmarks report it alongside measured throughput.
struct PlanLoadReport {
  std::vector<WorkerLoadTally> tallies;
  std::vector<double> loads;
  double total_load = 0.0;
  double balance = 1.0;  // Lmax / Lmin
};

PlanLoadReport EstimatePlanLoad(const PartitionPlan& plan,
                                const WorkloadSample& sample,
                                const CostModel& cm);

// Shared knobs for all partitioners.
struct PartitionConfig {
  int num_workers = 8;
  int grid_k = 6;       // 2^k x 2^k routing grid (paper: 2^6)
  CostModel cost;
  double sigma = 1.5;   // load balance constraint Lmax/Lmin <= sigma
  double delta = 0.4;   // hybrid: text-similarity threshold (Algorithm 1)
  double epsilon = 0.05;  // hybrid: |alpha - sim| ~ 0 tolerance
  size_t theta = 1024;  // hybrid: max number of kdt-tree nodes
  uint64_t seed = 42;   // for randomized tie-breaking
  // Hybrid ablation: disable the ComputeNumberPartitions dynamic program
  // and split every phase-1 node into an equal share of the workers.
  bool use_number_partitions_dp = true;
};

// Interface implemented by the six baselines and the hybrid algorithm.
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual std::string Name() const = 0;
  virtual PartitionPlan Build(const WorkloadSample& sample,
                              const Vocabulary& vocab,
                              const PartitionConfig& config) const = 0;
};

// Registry of all partitioners by name ("frequency", "hypergraph", "metric",
// "grid", "kdtree", "rtree", "hybrid"); nullptr for unknown names.
std::unique_ptr<Partitioner> MakePartitioner(const std::string& name);

}  // namespace ps2

#endif  // PS2_PARTITION_PLAN_H_
