#include "partition/text_frequency.h"

#include "partition/load_estimator.h"
#include "partition/text_util.h"

namespace ps2 {

PartitionPlan FrequencyTextPartitioner::Build(
    const WorkloadSample& sample, const Vocabulary& /*vocab*/,
    const PartitionConfig& config) const {
  const GridSpec grid(sample.Bounds(), config.grid_k);
  const TermLoadProfile profile = TermLoadProfile::Compute(sample);

  std::vector<double> weights;
  weights.reserve(profile.terms.size());
  for (const TermId t : profile.terms) {
    weights.push_back(profile.TermWeight(config.cost, t));
  }
  const std::vector<int> bins = GreedyLpt(weights, config.num_workers);

  std::unordered_map<TermId, WorkerId> map;
  map.reserve(profile.terms.size());
  for (size_t i = 0; i < profile.terms.size(); ++i) {
    map[profile.terms[i]] = bins[i];
  }
  return MakeWholeSpaceTextPlan(grid, config.num_workers, std::move(map));
}

}  // namespace ps2
