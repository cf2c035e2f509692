#include "partition/text_metric.h"

#include <algorithm>
#include <numeric>

#include "partition/load_estimator.h"
#include "partition/text_util.h"

namespace ps2 {

PartitionPlan MetricTextPartitioner::Build(const WorkloadSample& sample,
                                           const Vocabulary& /*vocab*/,
                                           const PartitionConfig& config) const {
  const GridSpec grid(sample.Bounds(), config.grid_k);
  const TermLoadProfile profile = TermLoadProfile::Compute(sample);
  const int m = config.num_workers;

  std::unordered_map<TermId, std::unordered_map<TermId, uint32_t>> cooc;
  for (const auto& o : sample.objects) {
    const size_t n = std::min(o.terms.size(), max_terms_per_edge_);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        cooc[o.terms[i]][o.terms[j]]++;
        cooc[o.terms[j]][o.terms[i]]++;
      }
    }
  }

  std::vector<double> weights;
  weights.reserve(profile.terms.size());
  for (const TermId t : profile.terms) {
    weights.push_back(profile.TermWeight(config.cost, t));
  }
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  const double cap = std::max(total / m, 1e-9);

  std::vector<size_t> order(profile.terms.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return profile.terms[a] < profile.terms[b];
  });

  std::unordered_map<TermId, WorkerId> assignment;
  std::vector<double> load(m, 0.0);
  for (const size_t i : order) {
    const TermId t = profile.terms[i];
    std::vector<double> affinity(m, 0.0);
    double max_affinity = 0.0;
    auto adj = cooc.find(t);
    if (adj != cooc.end()) {
      for (const auto& [other, count] : adj->second) {
        auto placed = assignment.find(other);
        if (placed != assignment.end()) {
          affinity[placed->second] += count;
          max_affinity = std::max(max_affinity, affinity[placed->second]);
        }
      }
    }
    int best = 0;
    double best_metric = 1e300;
    for (int w = 0; w < m; ++w) {
      const double load_part = (load[w] + weights[i]) / cap;
      const double dup_part =
          max_affinity > 0 ? 1.0 - affinity[w] / max_affinity : 0.0;
      const double metric = alpha_ * load_part + (1.0 - alpha_) * dup_part;
      if (metric < best_metric) {
        best_metric = metric;
        best = w;
      }
    }
    assignment[t] = best;
    load[best] += weights[i];
  }
  return MakeWholeSpaceTextPlan(grid, m, std::move(assignment));
}

}  // namespace ps2
