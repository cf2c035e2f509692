#include "dispatch/gridt_index.h"

#include <algorithm>

namespace ps2 {

void GridtIndex::AddH2(CellId cell, TermId term, WorkerId worker) {
  auto& list = h2_[cell].entries[term];
  for (auto& [w, count] : list) {
    if (w == worker) {
      ++count;
      return;
    }
  }
  list.emplace_back(worker, 1);
}

void GridtIndex::RemoveH2(CellId cell, TermId term, WorkerId worker) {
  auto cit = h2_.find(cell);
  if (cit == h2_.end()) return;
  auto tit = cit->second.entries.find(term);
  if (tit == cit->second.entries.end()) return;
  auto& list = tit->second;
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].first != worker) continue;
    if (--list[i].second == 0) {
      list[i] = list.back();
      list.pop_back();
    }
    break;
  }
  if (list.empty()) cit->second.entries.erase(tit);
  if (cit->second.entries.empty()) h2_.erase(cit);
}

std::vector<PartitionPlan::QueryRoute> GridtIndex::RouteInsert(
    const STSQuery& q) {
  std::vector<PartitionPlan::QueryRoute> routes;
  // RouteQuery leaves q.region's overlapping cells in the scratch; the H2
  // maintenance below walks the same list instead of recomputing it.
  plan_.RouteQuery(q, &routes, &route_cells_scratch_);
  // H2 is maintained only for text-routed cells (space-routed cells in the
  // paper's gridt carry a bare worker id — Figure 4).
  for (const CellId cell : route_cells_scratch_) {
    const CellRoute& route = plan_.cells[cell];
    if (!route.IsText()) continue;
    for (const TermId t : q.expr.RoutingTerms()) {
      AddH2(cell, t, route.text->Route(t));
    }
  }
  return routes;
}

std::vector<PartitionPlan::QueryRoute> GridtIndex::RouteDelete(
    const STSQuery& q) {
  std::vector<PartitionPlan::QueryRoute> routes;
  plan_.RouteQuery(q, &routes, &route_cells_scratch_);
  for (const CellId cell : route_cells_scratch_) {
    const CellRoute& route = plan_.cells[cell];
    if (!route.IsText()) continue;
    for (const TermId t : q.expr.RoutingTerms()) {
      RemoveH2(cell, t, route.text->Route(t));
    }
  }
  return routes;
}

void GridtIndex::RouteObject(const SpatioTextualObject& o,
                             std::vector<WorkerId>* out) const {
  out->clear();
  const CellId cell = plan_.grid.CellOf(o.loc);
  const CellRoute& route = plan_.cells[cell];
  if (!route.IsText()) {
    // Space-routed cell: "sent to worker w3 or w4 without checking the
    // textual content" (Figure 4) — objects are never filtered here.
    out->push_back(route.worker);
    return;
  }
  // Text-routed cell: H2 decides which workers hold queries keyed by any
  // of the object's terms; an object matching no live key is discarded.
  auto cit = h2_.find(cell);
  if (cit == h2_.end()) return;
  for (const TermId t : o.terms) {
    auto tit = cit->second.entries.find(t);
    if (tit == cit->second.entries.end()) continue;
    for (const auto& [w, count] : tit->second) out->push_back(w);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void GridtIndex::RouteObjectH1(const SpatioTextualObject& o,
                               std::vector<WorkerId>* out) const {
  plan_.RouteObject(o, out);
}

void GridtIndex::ReassignCell(CellId cell, WorkerId to) {
  plan_.cells[cell].worker = to;
  plan_.cells[cell].text.reset();
  // Space-routed cells carry no H2 state.
  h2_.erase(cell);
}

void GridtIndex::SetCellTextRoute(
    CellId cell, std::unordered_map<TermId, WorkerId> term_map,
    std::vector<WorkerId> workers) {
  auto router = std::make_shared<const TermRouter>(std::move(term_map),
                                                   std::move(workers));
  plan_.cells[cell].text = router;
  plan_.cells[cell].worker = 0;
  auto cit = h2_.find(cell);
  if (cit == h2_.end()) return;
  for (auto& [term, list] : cit->second.entries) {
    uint32_t total = 0;
    for (const auto& [w, count] : list) total += count;
    list.assign(1, {router->Route(term), total});
  }
}

void GridtIndex::SetCellSpaceRoute(CellId cell, WorkerId worker) {
  ReassignCell(cell, worker);
}

void GridtIndex::RemapCellWorker(CellId cell, WorkerId from, WorkerId to) {
  CellRoute& route = plan_.cells[cell];
  if (!route.IsText()) {
    if (route.worker == from) ReassignCell(cell, to);
    return;
  }
  // Clone the router with `from`'s terms remapped to `to`. The clone is
  // cell-local: other cells sharing the original router are unaffected.
  std::unordered_map<TermId, WorkerId> map = route.text->term_map();
  for (auto& [t, w] : map) {
    if (w == from) w = to;
  }
  std::vector<WorkerId> workers = route.text->workers();
  std::replace(workers.begin(), workers.end(), from, to);
  route.text =
      std::make_shared<const TermRouter>(std::move(map), std::move(workers));
  auto cit = h2_.find(cell);
  if (cit == h2_.end()) return;
  for (auto& [term, list] : cit->second.entries) {
    // Merge `from` counts into `to`.
    uint32_t moved = 0;
    for (size_t i = 0; i < list.size();) {
      if (list[i].first == from) {
        moved += list[i].second;
        list[i] = list.back();
        list.pop_back();
      } else {
        ++i;
      }
    }
    if (moved == 0) continue;
    bool found = false;
    for (auto& [w, count] : list) {
      if (w == to) {
        count += moved;
        found = true;
        break;
      }
    }
    if (!found) list.emplace_back(to, moved);
  }
}

std::vector<WorkerId> GridtIndex::H2Workers(CellId cell, TermId term) const {
  std::vector<WorkerId> out;
  auto cit = h2_.find(cell);
  if (cit == h2_.end()) return out;
  auto tit = cit->second.entries.find(term);
  if (tit == cit->second.entries.end()) return out;
  for (const auto& [w, count] : tit->second) out.push_back(w);
  std::sort(out.begin(), out.end());
  return out;
}

std::unordered_map<TermId, std::vector<WorkerId>> GridtIndex::H2CellMap(
    CellId cell) const {
  std::unordered_map<TermId, std::vector<WorkerId>> out;
  auto cit = h2_.find(cell);
  if (cit == h2_.end()) return out;
  out.reserve(cit->second.entries.size());
  for (const auto& [term, list] : cit->second.entries) {
    std::vector<WorkerId>& workers = out[term];
    workers.reserve(list.size());
    for (const auto& [w, count] : list) workers.push_back(w);
  }
  return out;
}

size_t GridtIndex::MemoryBytes() const {
  size_t bytes = plan_.MemoryBytes();
  for (const auto& [cell, h2cell] : h2_) {
    bytes += 48;  // cell table entry overhead
    for (const auto& [term, list] : h2cell.entries) {
      bytes += sizeof(TermId) + 32 +
               list.capacity() * sizeof(std::pair<WorkerId, uint32_t>);
    }
  }
  return bytes;
}

size_t GridtIndex::NumH2Entries() const {
  size_t n = 0;
  for (const auto& [cell, h2cell] : h2_) n += h2cell.entries.size();
  return n;
}

}  // namespace ps2
