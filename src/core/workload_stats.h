#ifndef PS2_CORE_WORKLOAD_STATS_H_
#define PS2_CORE_WORKLOAD_STATS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/geo.h"
#include "core/query.h"
#include "text/vocabulary.h"

namespace ps2 {

// A sample of the recent workload: the input every partitioner consumes
// (Definition 2 takes "a set of spatio-textual objects O, a set of STS query
// insertion requests Qi and a set of STS query deletion requests Qd").
// In production the dispatcher collects this by reservoir-sampling the
// stream; in benchmarks the generators produce it directly.
struct WorkloadSample {
  std::vector<SpatioTextualObject> objects;
  std::vector<STSQuery> inserts;
  std::vector<STSQuery> deletes;

  // Spatial extent covering all object locations and query regions; the
  // routing grid spans exactly this rectangle.
  Rect Bounds() const;

  bool empty() const { return objects.empty() && inserts.empty(); }
};

// Per-term statistics over a workload sample, shared by the text
// partitioners and the hybrid algorithm.
struct TermStats {
  // Number of objects containing each term.
  std::unordered_map<TermId, uint64_t> object_freq;
  // Number of insert queries whose routing terms include each term.
  std::unordered_map<TermId, uint64_t> query_routing_freq;
  // All terms observed in either map.
  std::vector<TermId> terms;

  static TermStats Compute(const WorkloadSample& sample);

  uint64_t ObjectFreq(TermId t) const;
  uint64_t QueryRoutingFreq(TermId t) const;
};

// Populates vocabulary counts from the objects of a sample (the frequency
// profile admission keys "least frequent keyword" decisions on).
void AccumulateVocabularyCounts(const WorkloadSample& sample,
                                Vocabulary& vocab);

}  // namespace ps2

#endif  // PS2_CORE_WORKLOAD_STATS_H_
