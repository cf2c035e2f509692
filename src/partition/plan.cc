#include "partition/plan.h"

#include <algorithm>

namespace ps2 {

TermRouter::TermRouter(std::unordered_map<TermId, WorkerId> map,
                       std::vector<WorkerId> workers)
    : map_(std::move(map)), workers_(std::move(workers)) {
  if (workers_.empty()) {
    // Degenerate router: collect workers from the map so Route() is total.
    for (const auto& [t, w] : map_) workers_.push_back(w);
    std::sort(workers_.begin(), workers_.end());
    workers_.erase(std::unique(workers_.begin(), workers_.end()),
                   workers_.end());
    if (workers_.empty()) workers_.push_back(0);
  }
}

WorkerId TermRouter::Route(TermId t) const {
  auto it = map_.find(t);
  if (it != map_.end()) return it->second;
  // Deterministic hash fallback keeps unseen terms routable and consistent
  // between objects and queries.
  const uint64_t h = static_cast<uint64_t>(t) * 0x9E3779B97F4A7C15ULL;
  return workers_[h % workers_.size()];
}

std::vector<WorkerId> TermRouter::DistinctWorkers() const {
  std::vector<WorkerId> out = workers_;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t TermRouter::MemoryBytes() const {
  return map_.size() * (sizeof(TermId) + sizeof(WorkerId) + 16) +
         workers_.capacity() * sizeof(WorkerId) + sizeof(TermRouter);
}

void PartitionPlan::RouteObject(const SpatioTextualObject& o,
                                std::vector<WorkerId>* out) const {
  out->clear();
  const CellRoute& route = cells[grid.CellOf(o.loc)];
  if (!route.IsText()) {
    out->push_back(route.worker);
    return;
  }
  for (const TermId t : o.terms) {
    out->push_back(route.text->Route(t));
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void PartitionPlan::RouteQuery(const STSQuery& q,
                               std::vector<QueryRoute>* out,
                               std::vector<CellId>* overlap_scratch) const {
  out->clear();
  std::vector<CellId> local_overlap;
  std::vector<CellId>& overlap =
      overlap_scratch != nullptr ? *overlap_scratch : local_overlap;
  grid.CellsOverlapping(q.region, &overlap);
  std::unordered_map<WorkerId, std::vector<CellId>> per_worker;
  for (const CellId cell : overlap) {
    const CellRoute& route = cells[cell];
    if (!route.IsText()) {
      per_worker[route.worker].push_back(cell);
      continue;
    }
    for (const TermId t : q.expr.RoutingTerms()) {
      per_worker[route.text->Route(t)].push_back(cell);
    }
  }
  out->reserve(per_worker.size());
  for (auto& [worker, worker_cells] : per_worker) {
    std::sort(worker_cells.begin(), worker_cells.end());
    worker_cells.erase(std::unique(worker_cells.begin(), worker_cells.end()),
                       worker_cells.end());
    out->push_back(QueryRoute{worker, std::move(worker_cells)});
  }
  std::sort(out->begin(), out->end(),
            [](const QueryRoute& a, const QueryRoute& b) {
              return a.worker < b.worker;
            });
}

size_t PartitionPlan::MemoryBytes() const {
  size_t bytes = sizeof(PartitionPlan) + cells.capacity() * sizeof(CellRoute);
  // Routers are shared between cells; count each once.
  std::vector<const TermRouter*> seen;
  for (const auto& c : cells) {
    if (c.IsText() &&
        std::find(seen.begin(), seen.end(), c.text.get()) == seen.end()) {
      seen.push_back(c.text.get());
      bytes += c.text->MemoryBytes();
    }
  }
  return bytes;
}

size_t PartitionPlan::NumTextCells() const {
  size_t n = 0;
  for (const auto& c : cells) n += c.IsText() ? 1 : 0;
  return n;
}

PlanLoadReport EstimatePlanLoad(const PartitionPlan& plan,
                                const WorkloadSample& sample,
                                const CostModel& cm) {
  PlanLoadReport report;
  report.tallies.assign(plan.num_workers, WorkerLoadTally{});
  std::vector<WorkerId> object_workers;
  for (const auto& o : sample.objects) {
    plan.RouteObject(o, &object_workers);
    for (const WorkerId w : object_workers) report.tallies[w].objects++;
  }
  std::vector<PartitionPlan::QueryRoute> routes;
  for (const auto& q : sample.inserts) {
    plan.RouteQuery(q, &routes);
    for (const auto& r : routes) report.tallies[r.worker].inserts++;
  }
  for (const auto& q : sample.deletes) {
    plan.RouteQuery(q, &routes);
    for (const auto& r : routes) report.tallies[r.worker].deletes++;
  }
  report.loads.reserve(plan.num_workers);
  for (const auto& t : report.tallies) {
    report.loads.push_back(WorkerLoad(cm, t));
  }
  report.total_load = TotalLoad(report.loads);
  report.balance = BalanceFactor(report.loads);
  return report;
}

}  // namespace ps2
