#include "partition/load_estimator.h"

#include <algorithm>
#include <numeric>

namespace ps2 {

CellLoadProfile CellLoadProfile::Compute(const GridSpec& grid,
                                         const WorkloadSample& sample) {
  CellLoadProfile p;
  p.grid = grid;
  p.objects.assign(grid.NumCells(), 0);
  p.inserts.assign(grid.NumCells(), 0);
  p.deletes.assign(grid.NumCells(), 0);
  for (const auto& o : sample.objects) {
    p.objects[grid.CellOf(o.loc)]++;
  }
  for (const auto& q : sample.inserts) {
    for (const CellId c : grid.CellsOverlapping(q.region)) p.inserts[c]++;
  }
  for (const auto& q : sample.deletes) {
    for (const CellId c : grid.CellsOverlapping(q.region)) p.deletes[c]++;
  }
  return p;
}

double CellLoadProfile::CellLoad(const CostModel& cm, CellId cell) const {
  WorkerLoadTally t;
  t.objects = objects[cell];
  t.inserts = inserts[cell];
  t.deletes = deletes[cell];
  return WorkerLoad(cm, t);
}

TermLoadProfile TermLoadProfile::Compute(const WorkloadSample& sample) {
  TermLoadProfile p;
  for (const auto& o : sample.objects) {
    for (const TermId t : o.terms) p.object_freq[t]++;
  }
  for (const auto& q : sample.inserts) {
    for (const TermId t : q.expr.RoutingTerms()) p.insert_freq[t]++;
  }
  for (const auto& q : sample.deletes) {
    for (const TermId t : q.expr.RoutingTerms()) p.delete_freq[t]++;
  }
  for (const auto& [t, _] : p.object_freq) p.terms.push_back(t);
  for (const auto& [t, _] : p.insert_freq) {
    if (!p.object_freq.count(t)) p.terms.push_back(t);
  }
  for (const auto& [t, _] : p.delete_freq) {
    if (!p.object_freq.count(t) && !p.insert_freq.count(t)) {
      p.terms.push_back(t);
    }
  }
  std::sort(p.terms.begin(), p.terms.end());
  return p;
}

uint32_t TermLoadProfile::Of(TermId t) const {
  auto it = object_freq.find(t);
  return it == object_freq.end() ? 0 : it->second;
}
uint32_t TermLoadProfile::Qi(TermId t) const {
  auto it = insert_freq.find(t);
  return it == insert_freq.end() ? 0 : it->second;
}
uint32_t TermLoadProfile::Qd(TermId t) const {
  auto it = delete_freq.find(t);
  return it == delete_freq.end() ? 0 : it->second;
}

double TermLoadProfile::TermWeight(const CostModel& cm, TermId t) const {
  const double of = Of(t);
  const double qi = Qi(t);
  const double qd = Qd(t);
  return cm.c1 * of * qi + cm.c2 * of + cm.c3 * qi + cm.c4 * qd;
}

std::vector<int> GreedyLpt(const std::vector<double>& weights, int m) {
  std::vector<size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return a < b;
  });
  std::vector<double> bin_load(m, 0.0);
  std::vector<int> assignment(weights.size(), 0);
  for (const size_t i : order) {
    const int bin = static_cast<int>(
        std::min_element(bin_load.begin(), bin_load.end()) -
        bin_load.begin());
    assignment[i] = bin;
    bin_load[bin] += weights[i];
  }
  return assignment;
}

std::vector<double> BinLoads(const std::vector<double>& weights,
                             const std::vector<int>& assignment, int m) {
  std::vector<double> loads(m, 0.0);
  for (size_t i = 0; i < weights.size(); ++i) {
    loads[assignment[i]] += weights[i];
  }
  return loads;
}

}  // namespace ps2
