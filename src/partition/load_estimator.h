#ifndef PS2_PARTITION_LOAD_ESTIMATOR_H_
#define PS2_PARTITION_LOAD_ESTIMATOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/cost_model.h"
#include "core/workload_stats.h"
#include "spatial/grid.h"
#include "text/vocabulary.h"

namespace ps2 {

// Per-grid-cell workload statistics computed once from a sample and shared
// by all space-aware partitioners: how many sampled objects fall in each
// cell and how many insert/delete requests overlap it.
struct CellLoadProfile {
  GridSpec grid;
  std::vector<uint32_t> objects;   // objects located in the cell
  std::vector<uint32_t> inserts;   // insert requests overlapping the cell
  std::vector<uint32_t> deletes;   // delete requests overlapping the cell

  static CellLoadProfile Compute(const GridSpec& grid,
                                 const WorkloadSample& sample);

  // Definition-1 load of the cell treated as its own worker.
  double CellLoad(const CostModel& cm, CellId cell) const;

  // Weight function view for kd decompositions.
  double WeightAt(const CostModel& cm, uint32_t cx, uint32_t cy) const {
    return CellLoad(cm, grid.ToId(cx, cy));
  }
};

// Per-term workload statistics shared by the text partitioners: for every
// term, how many objects contain it and how many insert/delete requests
// route by it (the routing clause each query carries).
struct TermLoadProfile {
  std::unordered_map<TermId, uint32_t> object_freq;
  std::unordered_map<TermId, uint32_t> insert_freq;
  std::unordered_map<TermId, uint32_t> delete_freq;
  std::vector<TermId> terms;  // all terms present in any map

  static TermLoadProfile Compute(const WorkloadSample& sample);

  uint32_t Of(TermId t) const;  // object frequency
  uint32_t Qi(TermId t) const;  // insert routing frequency
  uint32_t Qd(TermId t) const;  // delete routing frequency

  // Definition-1-shaped weight of assigning term t to some worker:
  //   c1 * Of * Qi + c2 * Of + c3 * Qi + c4 * Qd.
  double TermWeight(const CostModel& cm, TermId t) const;
};

// Longest-processing-time greedy: assigns each weighted item to the
// currently least-loaded of `m` bins after sorting by descending weight.
// Returns per-item bin ids. The classic 4/3-approximation for makespan,
// used wherever a partitioner needs balanced groups.
std::vector<int> GreedyLpt(const std::vector<double>& weights, int m);

// Sums weights per bin for a GreedyLpt-style assignment.
std::vector<double> BinLoads(const std::vector<double>& weights,
                             const std::vector<int>& assignment, int m);

}  // namespace ps2

#endif  // PS2_PARTITION_LOAD_ESTIMATOR_H_
