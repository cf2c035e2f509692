#include "adjust/global_adjust.h"

#include <algorithm>

#include "partition/hybrid.h"

namespace ps2 {

void DualStrategyRouter::InstallNewPlan(std::unique_ptr<GridtIndex> next) {
  // A previous transition must have been retired first; callers check
  // InTransition(). If not, fold the stale old index away by pinning its
  // remaining queries to the current primary (best effort).
  old_ = std::move(primary_);
  primary_ = std::move(next);
  // Every live query was registered in (what is now) the old index.
  for (auto& [id, entry] : live_) entry.old_generation = true;
}

void DualStrategyRouter::RouteObject(const SpatioTextualObject& o,
                                     std::vector<WorkerId>* out) const {
  primary_->RouteObject(o, out);
  if (old_ != nullptr) {
    std::vector<WorkerId> extra;
    old_->RouteObject(o, &extra);
    out->insert(out->end(), extra.begin(), extra.end());
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }
}

std::vector<PartitionPlan::QueryRoute> DualStrategyRouter::RouteInsert(
    const STSQuery& q) {
  live_[q.id] = LiveQuery{q, /*old_generation=*/false};
  return primary_->RouteInsert(q);
}

std::vector<PartitionPlan::QueryRoute> DualStrategyRouter::RouteDelete(
    const STSQuery& q) {
  auto it = live_.find(q.id);
  const bool old_gen = it != live_.end() && it->second.old_generation;
  if (it != live_.end()) live_.erase(it);
  if (old_gen && old_ != nullptr) {
    return old_->RouteDelete(q);
  }
  return primary_->RouteDelete(q);
}

size_t DualStrategyRouter::OldQueryCount() const {
  size_t n = 0;
  for (const auto& [id, entry] : live_) n += entry.old_generation ? 1 : 0;
  return n;
}

std::vector<STSQuery> DualStrategyRouter::TakeOldQueriesAndRetire() {
  std::vector<STSQuery> out;
  for (auto& [id, entry] : live_) {
    if (entry.old_generation) {
      out.push_back(entry.query);
      entry.old_generation = false;  // re-registered under the new plan
    }
  }
  old_.reset();
  return out;
}

size_t DualStrategyRouter::MemoryBytes() const {
  size_t bytes = primary_->MemoryBytes();
  if (old_ != nullptr) bytes += old_->MemoryBytes();
  for (const auto& [id, entry] : live_) {
    bytes += entry.query.MemoryBytes() + 32;
  }
  return bytes;
}

RepartitionDecision EvaluateRepartition(const PartitionPlan& current,
                                        const WorkloadSample& sample,
                                        const Vocabulary& vocab,
                                        const PartitionConfig& config,
                                        double improvement_threshold) {
  RepartitionDecision decision;
  decision.current_load =
      EstimatePlanLoad(current, sample, config.cost).total_load;
  HybridPartitioner hybrid;
  decision.candidate = hybrid.Build(sample, vocab, config);
  decision.candidate_load =
      EstimatePlanLoad(decision.candidate, sample, config.cost)
          .total_load;
  decision.repartition =
      decision.candidate_load <
      decision.current_load * (1.0 - improvement_threshold);
  return decision;
}

}  // namespace ps2
