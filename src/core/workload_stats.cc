#include "core/workload_stats.h"

namespace ps2 {

Rect WorkloadSample::Bounds() const {
  Rect b;
  for (const auto& o : objects) b.Expand(o.loc);
  for (const auto& q : inserts) b.Expand(q.region);
  for (const auto& q : deletes) b.Expand(q.region);
  return b;
}

TermStats TermStats::Compute(const WorkloadSample& sample) {
  TermStats stats;
  for (const auto& o : sample.objects) {
    for (const TermId t : o.terms) stats.object_freq[t]++;
  }
  for (const auto& q : sample.inserts) {
    for (const TermId t : q.expr.RoutingTerms()) {
      stats.query_routing_freq[t]++;
    }
  }
  stats.terms.reserve(stats.object_freq.size());
  for (const auto& [t, _] : stats.object_freq) stats.terms.push_back(t);
  for (const auto& [t, _] : stats.query_routing_freq) {
    if (!stats.object_freq.count(t)) stats.terms.push_back(t);
  }
  return stats;
}

uint64_t TermStats::ObjectFreq(TermId t) const {
  auto it = object_freq.find(t);
  return it == object_freq.end() ? 0 : it->second;
}

uint64_t TermStats::QueryRoutingFreq(TermId t) const {
  auto it = query_routing_freq.find(t);
  return it == query_routing_freq.end() ? 0 : it->second;
}

void AccumulateVocabularyCounts(const WorkloadSample& sample,
                                Vocabulary& vocab) {
  for (const auto& o : sample.objects) {
    for (const TermId t : o.terms) vocab.AddCount(t);
  }
}

}  // namespace ps2
