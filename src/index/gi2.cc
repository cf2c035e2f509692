#include "index/gi2.h"

#include <algorithm>

namespace ps2 {

Gi2Index::Gi2Index(const GridSpec& grid, const Options& options)
    : grid_(grid), options_(options) {
  cell_dir_.assign(grid_.NumCells(), kNone);
}

Gi2Index::Cell* Gi2Index::FindCell(CellId cell) {
  if (cell >= cell_dir_.size() || cell_dir_[cell] == kNone) return nullptr;
  return &cell_pool_[cell_dir_[cell]];
}

const Gi2Index::Cell* Gi2Index::FindCell(CellId cell) const {
  if (cell >= cell_dir_.size() || cell_dir_[cell] == kNone) return nullptr;
  return &cell_pool_[cell_dir_[cell]];
}

Gi2Index::Cell& Gi2Index::CellFor(CellId cell) {
  uint32_t& rec = cell_dir_[cell];
  if (rec == kNone) {
    if (!free_cell_recs_.empty()) {
      rec = free_cell_recs_.back();
      free_cell_recs_.pop_back();
    } else {
      cell_pool_.emplace_back();
      rec = static_cast<uint32_t>(cell_pool_.size() - 1);
    }
  }
  return cell_pool_[rec];
}

uint32_t Gi2Index::AllocSlot() {
  if (free_slot_head_ != kNone) {
    const uint32_t slot = free_slot_head_;
    free_slot_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNone;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Gi2Index::FreeSlot(uint32_t slot) {
  QuerySlot& qs = slots_[slot];
  qs.query = STSQuery{};
  qs.cells.clear();
  qs.postings = 0;
  qs.mark_epoch = 0;
  qs.state = SlotState::kFree;
  qs.next_free = free_slot_head_;
  free_slot_head_ = slot;
}

void Gi2Index::ReleaseTombstone(uint32_t slot) {
  --num_tombstones_;
  FreeSlot(slot);
}

void Gi2Index::IndexInCell(const STSQuery& q, uint32_t slot,
                          const std::vector<TermId>& routing_terms,
                          CellId cell_id) {
  QuerySlot& qs = slots_[slot];
  const auto it =
      std::lower_bound(qs.cells.begin(), qs.cells.end(), cell_id);
  if (it != qs.cells.end() && *it == cell_id) return;  // already indexed here
  Cell& cell = CellFor(cell_id);
  for (const TermId t : routing_terms) {
    arena_.Push(cell.postings[t], slot);
  }
  qs.postings += static_cast<uint32_t>(routing_terms.size());
  qs.cells.insert(it, cell_id);
  ++cell.num_queries;
  cell.query_bytes += q.MemoryBytes();
}

void Gi2Index::Insert(const STSQuery& q) {
  grid_.CellsOverlapping(q.region, &insert_cells_scratch_);
  InsertIntoCells(q, insert_cells_scratch_);
}

void Gi2Index::InsertIntoCells(const STSQuery& q,
                               const std::vector<CellId>& cells) {
  if (q.expr.empty()) return;  // matches nothing; never index
  // Re-inserting an id whose previous incarnation is still a draining
  // tombstone needs no scrub: stale postings reference the old *slot* (which
  // keeps purging lazily) while the fresh insert binds the id to a new one.
  uint32_t slot;
  const uint32_t* existing = id_to_slot_.Find(q.id);
  const bool fresh = existing == nullptr;
  if (fresh) {
    slot = AllocSlot();
    QuerySlot& qs = slots_[slot];
    qs.query = q;
    qs.state = SlotState::kLive;
  } else {
    slot = *existing;
  }
  const std::vector<TermId>& routing_terms = q.expr.RoutingTerms();
  // The dispatcher is the routing authority; cells are indexed as given.
  // In particular, geometry outside the grid extent clamps to border cells
  // on both the query and the object path, so the pair still rendezvous.
  for (const CellId cell : cells) {
    if (cell >= cell_dir_.size()) continue;  // outside this index's grid
    IndexInCell(q, slot, routing_terms, cell);
  }
  if (slots_[slot].cells.empty()) {
    if (fresh) FreeSlot(slot);  // indexed nowhere
    return;
  }
  if (fresh) {
    id_to_slot_[q.id] = slot;
    ++num_live_;
  }
}

void Gi2Index::Delete(QueryId id) {
  const uint32_t* slot_ptr = id_to_slot_.Find(id);
  if (slot_ptr == nullptr) return;
  const uint32_t slot = *slot_ptr;
  QuerySlot& qs = slots_[slot];
  const size_t q_bytes = qs.query.MemoryBytes();
  for (const CellId cell_id : qs.cells) {
    Cell* cell = FindCell(cell_id);
    if (cell == nullptr) continue;
    if (cell->num_queries > 0) --cell->num_queries;
    cell->query_bytes -= std::min(cell->query_bytes, q_bytes);
  }
  id_to_slot_.Erase(id);
  --num_live_;
  if (options_.lazy_deletion) {
    if (qs.postings == 0) {
      FreeSlot(slot);
      return;
    }
    // The stored query itself is dropped now; only the posting counter
    // lingers until matching traversals purge the slot's stale postings.
    qs.query = STSQuery{};
    qs.cells.clear();
    qs.state = SlotState::kTombstone;
    ++num_tombstones_;
    return;
  }
  // Eager deletion: scrub this query's postings from the lists of its own
  // routing terms in its own cells. The query carries the routing clause it
  // was indexed under, so these are exactly the lists holding the slot.
  for (const CellId cell_id : qs.cells) {
    Cell* cell = FindCell(cell_id);
    if (cell == nullptr) continue;
    for (const TermId t : qs.query.expr.RoutingTerms()) {
      PostingArena::List* list = cell->postings.Find(t);
      if (list == nullptr) continue;
      arena_.RemoveMatching(*list, [slot](uint32_t s) { return s == slot; });
      if (list->head == PostingArena::kNull) cell->postings.Erase(t);
    }
  }
  FreeSlot(slot);
}

void Gi2Index::BumpEpoch() {
  if (++match_epoch_ == 0) {
    // Wraparound (once per 2^32 objects): every stamp could collide with
    // the restarted counter, so clear them all and skip epoch 0.
    for (QuerySlot& s : slots_) s.mark_epoch = 0;
    match_epoch_ = 1;
  }
}

void Gi2Index::MatchInCell(Cell& cell, const SpatioTextualObject& o,
                           std::vector<MatchResult>* out) {
  ++cell.objects_seen;
  // A query is indexed under every term of its routing clause; an object may
  // contain several of them, so dedup by stamping the slot with this
  // object's epoch.
  BumpEpoch();
  const uint32_t epoch = match_epoch_;
  // Event-time expiry stamp carried on every scored candidate (0 = never):
  // computed once per object, not per posting.
  const int64_t expire_us = o.ttl_us > 0 ? o.timestamp_us + o.ttl_us : 0;
  for (const TermId t : o.terms) {
    PostingArena::List* list = cell.postings.Find(t);
    if (list == nullptr) continue;
    uint32_t ci = list->head;
    while (ci != PostingArena::kNull) {
      // Captured up front: a purge can free the head chunk (overwriting its
      // next field with a freelist link), but never relinks any other
      // chunk, so the successor seen on entry stays correct.
      const uint32_t next = arena_.chunk(ci).next;
      uint32_t i = 0;
      while (i < arena_.chunk(ci).count) {
        const uint32_t slot = arena_.chunk(ci).slots[i];
        QuerySlot& qs = slots_[slot];
        if (qs.state == SlotState::kTombstone) {
          // Lazy purge: swap-remove the stale posting (backfilled from the
          // head chunk; the entry now at `i` is re-examined).
          arena_.SwapRemove(*list, ci, i);
          if (--qs.postings == 0) ReleaseTombstone(slot);
          continue;
        }
        if (qs.mark_epoch != epoch) {
          // Scored evaluation: boolean queries keep the strict predicate
          // (score stays 0); similarity/top-k queries emit the cosine score
          // the downstream admission/threshold already applied or will
          // apply. Still allocation-free — the score rides the existing
          // MatchResult.
          double score = 0.0;
          if (qs.query.Evaluate(o, &score)) {
            qs.mark_epoch = epoch;
            out->push_back(MatchResult{qs.query.id, o.id, score, expire_us});
          }
        }
        ++i;
      }
      ci = next;
    }
    if (list->head == PostingArena::kNull) cell.postings.Erase(t);
  }
}

void Gi2Index::Match(const SpatioTextualObject& o,
                     std::vector<MatchResult>* out) {
  Cell* cell = FindCell(grid_.CellOf(o.loc));
  if (cell == nullptr) return;
  MatchInCell(*cell, o, out);
}

void Gi2Index::MatchBatch(const SpatioTextualObject* const* objects,
                          size_t count, std::vector<MatchResult>* out) {
  if (count == 0) return;
  // Group by cell with one sort over packed (cell, position) keys: cell
  // lookups amortize across the group and a cell's postings stay hot in
  // cache, while the low half keeps stream order within each cell.
  batch_keys_.clear();
  for (size_t i = 0; i < count; ++i) {
    const CellId cell = grid_.CellOf(objects[i]->loc);
    batch_keys_.push_back((static_cast<uint64_t>(cell) << 32) | i);
  }
  std::sort(batch_keys_.begin(), batch_keys_.end());
  size_t i = 0;
  while (i < count) {
    const CellId cell_id = static_cast<CellId>(batch_keys_[i] >> 32);
    size_t j = i;
    while (j < count && static_cast<CellId>(batch_keys_[j] >> 32) == cell_id) {
      ++j;
    }
    Cell* cell = FindCell(cell_id);
    if (cell != nullptr) {
      for (size_t k = i; k < j; ++k) {
        const size_t pos = static_cast<size_t>(batch_keys_[k] & 0xffffffffu);
        MatchInCell(*cell, *objects[pos], out);
      }
    }
    i = j;
  }
}

size_t Gi2Index::MemoryBytes() const {
  size_t bytes = sizeof(Gi2Index);
  bytes += cell_dir_.capacity() * sizeof(uint32_t);
  bytes += free_cell_recs_.capacity() * sizeof(uint32_t);
  bytes += arena_.MemoryBytes();
  for (const Cell& cell : cell_pool_) {
    bytes += sizeof(Cell) + cell.postings.MemoryBytes();
  }
  bytes += slots_.capacity() * sizeof(QuerySlot);
  for (const QuerySlot& qs : slots_) {
    bytes += qs.cells.capacity() * sizeof(CellId);
    if (qs.state == SlotState::kLive) bytes += qs.query.MemoryBytes();
  }
  bytes += id_to_slot_.MemoryBytes();
  bytes += batch_keys_.capacity() * sizeof(uint64_t);
  return bytes;
}

std::vector<Gi2Index::CellStats> Gi2Index::AllCellStats() const {
  std::vector<CellStats> out;
  out.reserve(cell_pool_.size() - free_cell_recs_.size());
  for (CellId c = 0; c < cell_dir_.size(); ++c) {
    if (cell_dir_[c] == kNone) continue;
    const Cell& cell = cell_pool_[cell_dir_[c]];
    out.push_back(
        CellStats{c, cell.num_queries, cell.objects_seen, cell.query_bytes});
  }
  return out;
}

Gi2Index::CellStats Gi2Index::StatsFor(CellId cell_id) const {
  const Cell* cell = FindCell(cell_id);
  if (cell == nullptr) return CellStats{cell_id, 0, 0, 0};
  return CellStats{cell_id, cell->num_queries, cell->objects_seen,
                   cell->query_bytes};
}

void Gi2Index::ResetObjectCounters() {
  for (Cell& cell : cell_pool_) cell.objects_seen = 0;
}

std::vector<uint32_t> Gi2Index::LiveSlotsInCell(const Cell& cell) const {
  std::vector<uint32_t> slots;
  cell.postings.ForEach([&](TermId, const PostingArena::List& list) {
    arena_.ForEachEntry(list, [&](uint32_t s) {
      if (slots_[s].state == SlotState::kLive) slots.push_back(s);
    });
  });
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return slots;
}

std::vector<STSQuery> Gi2Index::ExtractCell(CellId cell_id) {
  std::vector<STSQuery> out;
  Cell* cell = FindCell(cell_id);
  if (cell == nullptr) return out;
  // Count the postings this cell holds per slot so tombstone budgets and
  // posting totals stay consistent after removal.
  std::vector<uint32_t> posting_slots;
  cell->postings.ForEach([&](TermId, const PostingArena::List& list) {
    arena_.ForEachEntry(list,
                        [&](uint32_t s) { posting_slots.push_back(s); });
  });
  std::sort(posting_slots.begin(), posting_slots.end());
  for (size_t i = 0; i < posting_slots.size();) {
    const uint32_t slot = posting_slots[i];
    size_t j = i;
    while (j < posting_slots.size() && posting_slots[j] == slot) ++j;
    const uint32_t count = static_cast<uint32_t>(j - i);
    i = j;
    QuerySlot& qs = slots_[slot];
    qs.postings -= std::min(qs.postings, count);
    if (qs.state == SlotState::kTombstone) {
      if (qs.postings == 0) ReleaseTombstone(slot);
      continue;
    }
    out.push_back(qs.query);
    const auto it =
        std::lower_bound(qs.cells.begin(), qs.cells.end(), cell_id);
    if (it != qs.cells.end() && *it == cell_id) qs.cells.erase(it);
    if (qs.cells.empty()) {
      id_to_slot_.Erase(qs.query.id);
      --num_live_;
      FreeSlot(slot);
    }
  }
  cell->postings.ForEach(
      [&](TermId, PostingArena::List& list) { arena_.FreeList(list); });
  cell->postings.Clear();
  cell->num_queries = 0;
  cell->objects_seen = 0;
  cell->query_bytes = 0;
  free_cell_recs_.push_back(cell_dir_[cell_id]);
  cell_dir_[cell_id] = kNone;
  return out;
}

std::vector<STSQuery> Gi2Index::CellQueries(CellId cell_id) const {
  std::vector<STSQuery> out;
  const Cell* cell = FindCell(cell_id);
  if (cell == nullptr) return out;
  const std::vector<uint32_t> live = LiveSlotsInCell(*cell);
  out.reserve(live.size());
  for (const uint32_t slot : live) out.push_back(slots_[slot].query);
  return out;
}

size_t Gi2Index::CellMigrationBytes(CellId cell_id) const {
  const Cell* cell = FindCell(cell_id);
  return cell == nullptr ? 0 : cell->query_bytes;
}

}  // namespace ps2
