#include "runtime/cluster.h"

#include <algorithm>

namespace ps2 {

Cluster::Cluster(PartitionPlan plan, const Vocabulary* vocab,
                 ClusterOptions options)
    : vocab_(vocab),
      index_(std::move(plan)),
      dispatcher_(&index_) {
  const int m = index_.plan().num_workers;
  workers_.reserve(m);
  for (int i = 0; i < m; ++i) {
    workers_.emplace_back(index_.plan().grid, options.worker_index);
  }
  tallies_.assign(m, WorkerLoadTally{});
}

void Cluster::Process(const StreamTuple& tuple,
                      std::vector<MatchResult>* delivered) {
  for (const auto& d : Route(tuple)) Apply(tuple, d, delivered);
}

const std::vector<Dispatcher::Delivery>& Cluster::Route(
    const StreamTuple& tuple) {
  dispatcher_.Route(tuple, &scratch_deliveries_);
  emitted_.clear();
  return scratch_deliveries_;
}

void Cluster::Apply(const StreamTuple& tuple,
                    const Dispatcher::Delivery& d,
                    std::vector<MatchResult>* delivered) {
  switch (tuple.kind) {
    case TupleKind::kObject: {
      scratch_matches_.clear();
      workers_[d.worker].Match(tuple.object, &scratch_matches_);
      tallies_[d.worker].objects++;
      if (scratch_deliveries_.size() <= 1) {
        if (delivered != nullptr) {
          delivered->insert(delivered->end(), scratch_matches_.begin(),
                            scratch_matches_.end());
        }
        break;
      }
      const size_t earlier = emitted_.size();
      for (const auto& m : scratch_matches_) {
        if (std::binary_search(emitted_.begin(), emitted_.begin() + earlier,
                               m.query_id)) {
          ++duplicates_suppressed_;
          continue;
        }
        emitted_.push_back(m.query_id);
        if (delivered != nullptr) delivered->push_back(m);
      }
      std::sort(emitted_.begin(), emitted_.end());
      break;
    }
    case TupleKind::kQueryInsert:
      workers_[d.worker].InsertIntoCells(tuple.query, d.cells);
      tallies_[d.worker].inserts++;
      break;
    case TupleKind::kQueryDelete:
      workers_[d.worker].Delete(tuple.query.id);
      tallies_[d.worker].deletes++;
      break;
  }
}

std::vector<double> Cluster::WorkerLoads(const CostModel& cm) const {
  std::vector<double> loads;
  loads.reserve(tallies_.size());
  for (const auto& t : tallies_) loads.push_back(WorkerLoad(cm, t));
  return loads;
}

void Cluster::ResetLoadWindow() {
  for (auto& t : tallies_) t.Clear();
  for (auto& w : workers_) w.ResetObjectCounters();
}

Cluster::MigrationStats Cluster::MigrateCell(CellId cell, WorkerId from,
                                             WorkerId to) {
  MigrationStats stats;
  if (from == to) return stats;
  stats.bytes = workers_[from].CellMigrationBytes(cell);
  std::vector<STSQuery> moved = workers_[from].ExtractCell(cell);
  stats.queries_moved = moved.size();
  const std::vector<CellId> cells{cell};
  for (const auto& q : moved) {
    workers_[to].InsertIntoCells(q, cells);
  }
  index_.RemapCellWorker(cell, from, to);
  return stats;
}

Cluster::MigrationStats Cluster::TextSplitCell(
    CellId cell, WorkerId keep, WorkerId to,
    const std::unordered_map<TermId, WorkerId>& term_map) {
  MigrationStats stats;
  std::vector<STSQuery> queries = workers_[keep].ExtractCell(cell);
  index_.SetCellTextRoute(cell, term_map, {keep, to});
  const TermRouter& router = *index_.plan().cells[cell].text;
  const std::vector<CellId> cells{cell};
  for (const auto& q : queries) {
    bool to_keep = false, to_other = false;
    for (const TermId t : q.expr.RoutingTerms()) {
      (router.Route(t) == keep ? to_keep : to_other) = true;
      // The cell just became text-routed: its H2 entries must be rebuilt
      // from the redistributed queries so objects keep reaching them.
      index_.AddH2(cell, t, router.Route(t));
    }
    if (to_keep) workers_[keep].InsertIntoCells(q, cells);
    if (to_other) {
      workers_[to].InsertIntoCells(q, cells);
      stats.queries_moved++;
      stats.bytes += q.MemoryBytes();
    }
  }
  return stats;
}

Cluster::MigrationStats Cluster::MergeCellTo(CellId cell, WorkerId to) {
  MigrationStats stats;
  const CellRoute& route = index_.plan().cells[cell];
  std::vector<WorkerId> sources;
  if (route.IsText()) {
    sources = route.text->DistinctWorkers();
  } else {
    sources.push_back(route.worker);
  }
  const std::vector<CellId> cells{cell};
  for (const WorkerId w : sources) {
    if (w == to) continue;
    stats.bytes += workers_[w].CellMigrationBytes(cell);
    for (const auto& q : workers_[w].ExtractCell(cell)) {
      workers_[to].InsertIntoCells(q, cells);
      stats.queries_moved++;
    }
  }
  index_.SetCellSpaceRoute(cell, to);
  return stats;
}

}  // namespace ps2
