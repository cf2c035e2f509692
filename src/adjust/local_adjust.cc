#include "adjust/local_adjust.h"

#include <algorithm>

#include "partition/load_estimator.h"

namespace ps2 {

std::vector<MigratableCell> LocalLoadAdjuster::CollectCells(
    const Cluster& cluster, WorkerId worker) {
  std::vector<MigratableCell> cells;
  for (const auto& s : cluster.worker(worker).AllCellStats()) {
    MigratableCell c;
    c.cell = s.cell;
    c.load = CellLoad(s.objects_seen, static_cast<double>(s.num_queries));
    c.size = static_cast<double>(s.query_bytes);
    cells.push_back(c);
  }
  return cells;
}

bool LocalLoadAdjuster::TryTextSplit(Cluster& cluster,
                                     const WorkloadSample& window, CellId cell,
                                     WorkerId wo, WorkerId wl,
                                     MigrationExecutor& exec,
                                     AdjustReport* report) {
  const GridSpec& grid = cluster.router().plan().grid;
  const Rect cell_rect = grid.CellRect(cell);

  // Node-local term statistics from the sample window.
  std::unordered_map<TermId, uint32_t> of, qi;
  uint64_t cell_objects = 0;
  for (const auto& o : window.objects) {
    if (grid.CellOf(o.loc) != cell) continue;
    ++cell_objects;
    for (const TermId t : o.terms) of[t]++;
  }
  uint64_t cell_queries = 0;
  for (const auto& q : window.inserts) {
    if (!q.region.Intersects(cell_rect)) continue;
    ++cell_queries;
    for (const TermId t : q.expr.RoutingTerms()) qi[t]++;
  }
  if (cell_objects == 0 || cell_queries == 0) return false;

  // Two-way LPT over term weights.
  std::vector<TermId> terms;
  for (const auto& [t, _] : of) terms.push_back(t);
  for (const auto& [t, _] : qi) {
    if (!of.count(t)) terms.push_back(t);
  }
  if (terms.size() < 2) return false;
  const auto get = [](const std::unordered_map<TermId, uint32_t>& m,
                      TermId t) -> double {
    auto it = m.find(t);
    return it == m.end() ? 0.0 : it->second;
  };
  std::vector<double> weights;
  weights.reserve(terms.size());
  for (const TermId t : terms) {
    weights.push_back(get(of, t) * get(qi, t) + get(of, t) + get(qi, t));
  }
  const std::vector<int> halves = GreedyLpt(weights, 2);

  // Estimate total-workload change of splitting (Definition 1 restricted to
  // the cell): before = c1 * |O| * |Q|; after = sum over halves.
  uint64_t o0 = 0, o1 = 0, q0 = 0, q1 = 0;
  std::unordered_map<TermId, int> half_of_term;
  for (size_t i = 0; i < terms.size(); ++i) half_of_term[terms[i]] = halves[i];
  for (const auto& o : window.objects) {
    if (grid.CellOf(o.loc) != cell) continue;
    bool in0 = false, in1 = false;
    for (const TermId t : o.terms) {
      auto it = half_of_term.find(t);
      if (it == half_of_term.end()) continue;
      (it->second == 0 ? in0 : in1) = true;
    }
    o0 += in0 ? 1 : 0;
    o1 += in1 ? 1 : 0;
  }
  for (const auto& q : window.inserts) {
    if (!q.region.Intersects(cell_rect)) continue;
    bool in0 = false, in1 = false;
    for (const TermId t : q.expr.RoutingTerms()) {
      auto it = half_of_term.find(t);
      if (it == half_of_term.end()) continue;
      (it->second == 0 ? in0 : in1) = true;
    }
    q0 += in0 ? 1 : 0;
    q1 += in1 ? 1 : 0;
  }
  const double before = static_cast<double>(cell_objects) *
                        static_cast<double>(cell_queries);
  const double after = static_cast<double>(o0) * q0 +
                       static_cast<double>(o1) * q1;
  if (after >= before) return false;

  // Split; the smaller half (by query count) moves to wl.
  const int moving_half = q0 <= q1 ? 0 : 1;
  std::unordered_map<TermId, WorkerId> term_map;
  for (size_t i = 0; i < terms.size(); ++i) {
    term_map[terms[i]] = halves[i] == moving_half ? wl : wo;
  }
  const auto stats = exec.TextSplitCell(cell, wo, wl, term_map);
  report->queries_moved += stats.queries_moved;
  report->bytes_migrated += stats.bytes;
  return true;
}

bool LocalLoadAdjuster::TryMerge(Cluster& cluster, CellId cell, WorkerId wo,
                                 WorkerId wl, MigrationExecutor& exec,
                                 AdjustReport* report) {
  const CellRoute& route = cluster.router().plan().cells[cell];
  if (!route.IsText()) return false;
  const std::vector<WorkerId> workers = route.text->DistinctWorkers();
  if (std::find(workers.begin(), workers.end(), wl) == workers.end()) {
    return false;  // wl holds no share of this cell's space region
  }
  // Estimate: merging removes object duplication across the cell's workers
  // but concentrates matching. Using per-worker GI2 counters (Definition 3):
  // before = sum_w no_w * nq_w; after = no_union * nq_total. We approximate
  // no_union by max_w no_w (every object reaching any worker is in the cell).
  double before = 0.0, nq_total = 0.0, no_union = 0.0;
  for (const WorkerId w : workers) {
    const auto s = cluster.worker(w).StatsFor(cell);
    before += CellLoad(s.objects_seen, s.num_queries);
    nq_total += s.num_queries;
    no_union = std::max(no_union, static_cast<double>(s.objects_seen));
  }
  const double after = no_union * nq_total;
  if (after >= before) return false;
  const auto stats = exec.MergeCellTo(cell, wl);
  report->queries_moved += stats.queries_moved;
  report->bytes_migrated += stats.bytes;
  return true;
}

AdjustReport LocalLoadAdjuster::MaybeAdjust(Cluster& cluster,
                                            const WorkloadSample& window) {
  SyncMigrationExecutor exec(cluster);
  return Adjust(cluster, window, cluster.WorkerLoads(config_.cost), exec);
}

AdjustReport LocalLoadAdjuster::Adjust(Cluster& cluster,
                                       const WorkloadSample& window,
                                       const std::vector<double>& loads,
                                       MigrationExecutor& exec) {
  AdjustReport report;
  report.balance_before = BalanceFactor(loads);
  if (report.balance_before <= config_.sigma) {
    report.balance_after = report.balance_before;
    return report;
  }
  report.triggered = true;
  const WorkerId wo = static_cast<WorkerId>(
      std::max_element(loads.begin(), loads.end()) - loads.begin());
  const WorkerId wl = static_cast<WorkerId>(
      std::min_element(loads.begin(), loads.end()) - loads.begin());
  report.overloaded = wo;
  report.underloaded = wl;

  // ---- Phase I: split / merge the p most loaded cells of wo.
  std::vector<MigratableCell> cells = CollectCells(cluster, wo);
  std::sort(cells.begin(), cells.end(),
            [](const MigratableCell& a, const MigratableCell& b) {
              return a.load > b.load;
            });
  const size_t p = std::min<size_t>(config_.p_top_cells, cells.size());
  for (size_t i = 0; i < p; ++i) {
    const CellId cell = cells[i].cell;
    const CellRoute& route = cluster.router().plan().cells[cell];
    if (!route.IsText()) {
      if (TryTextSplit(cluster, window, cell, wo, wl, exec, &report)) {
        report.phase1_splits++;
      }
    } else {
      if (TryMerge(cluster, cell, wo, wl, exec, &report)) {
        report.phase1_merges++;
      }
    }
  }

  // ---- Phase II: Minimum Cost Migration if still unbalanced.
  // Loads shifted by Phase I are approximated by the cell loads moved; we
  // recollect cell stats (GI2 counters moved with the queries).
  std::vector<MigratableCell> remaining = CollectCells(cluster, wo);
  double lo = 0.0;
  for (const auto& c : remaining) lo += c.load;
  std::vector<double> others;
  for (int w = 0; w < cluster.num_workers(); ++w) {
    if (w == wo) continue;
    double l = 0.0;
    for (const auto& c : CollectCells(cluster, w)) l += c.load;
    others.push_back(l);
  }
  const double ll = others.empty()
                        ? 0.0
                        : *std::min_element(others.begin(), others.end());
  const double tau = std::max(0.0, (lo - ll) / 2.0);
  if (tau > 0.0) {
    report.selection =
        SelectCells(config_.selector, remaining, tau, rng_);
    for (const CellId cell : report.selection.cells) {
      const auto stats = exec.MigrateCell(cell, wo, wl);
      report.queries_moved += stats.queries_moved;
      report.bytes_migrated += stats.bytes;
    }
  }
  report.migration_seconds =
      report.selection.selection_ms / 1e3 +
      static_cast<double>(report.bytes_migrated) /
          config_.bandwidth_bytes_per_sec +
      static_cast<double>(report.queries_moved) *
          config_.per_query_reindex_us / 1e6;
  // Post-adjust balance. The synchronous runtimes keep the cluster tallies
  // current; the threaded engine does not (its tallies live in per-worker
  // atomics), so fall back to the Definition-3 cell loads, which reflect
  // the post-migration placement in both modes.
  std::vector<double> after = cluster.WorkerLoads(config_.cost);
  bool any = false;
  for (const double l : after) any = any || l > 0.0;
  if (!any) {
    for (int w = 0; w < cluster.num_workers(); ++w) {
      double l = 0.0;
      for (const auto& c : CollectCells(cluster, w)) l += c.load;
      after[w] = l;
    }
  }
  report.balance_after = BalanceFactor(after);
  return report;
}

}  // namespace ps2
