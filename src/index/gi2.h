#ifndef PS2_INDEX_GI2_H_
#define PS2_INDEX_GI2_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "core/query.h"
#include "index/posting_arena.h"
#include "spatial/grid.h"
#include "text/vocabulary.h"

namespace ps2 {

// Grid-Inverted-Index (GI2) [29], the in-memory STS-query index maintained
// by each worker (Section IV-D). Queries are divided by the grid cells their
// region overlaps; each cell keeps an inverted index from routing terms to
// query postings. For AND-only queries the routing term is the least
// frequent keyword; for CNF queries with OR clauses we index under every
// term of the cheapest clause (see BoolExpr::RoutingTerms for why this is
// the completeness-preserving reading of the paper). The clause is chosen
// once, at admission, and carried by the query, so the index reads no
// vocabulary.
//
// Layout (the worker hot path is allocation-free in steady state):
//   * Queries live in a slot-indexed dense vector; a flat QueryId -> slot
//     map resolves ids. Posting lists store 32-bit slots, not ids.
//   * Per cell, a flat open-addressing table maps TermId -> posting list;
//     lists are chains of 64-byte chunks from a per-index PostingArena
//     (swap-remove purge, freelist recycling — see posting_arena.h).
//   * Per-object dedup ("a query indexed under several of the object's
//     terms must match once") is an epoch stamp per query slot: each object
//     bumps the index's match epoch and a slot is emitted only when its
//     stamp trails the epoch. No per-Match heap set; wraparound clears all
//     stamps once per 2^32 objects.
//
// Deletion is lazy (Section IV-D): a deletion request tombstones the query
// *slot*; stale postings are purged as inverted lists are traversed during
// matching. Because postings reference slots and a tombstoned slot is never
// reused until its last posting is purged, re-inserting a recently deleted
// QueryId simply binds the id to a fresh slot — the index-wide scrub the
// old id-keyed layout needed on re-insert is gone entirely. Eager deletion
// is available for the ablation benchmark.
//
// The grid granularity matches the dispatcher's gridt index, so dynamic load
// adjustment can migrate whole cells between workers via ExtractCell /
// InsertIntoCells without re-deriving query-to-cell mappings.
class Gi2Index {
 public:
  struct Options {
    bool lazy_deletion = true;
  };

  explicit Gi2Index(const GridSpec& grid) : Gi2Index(grid, Options{}) {}
  Gi2Index(const GridSpec& grid, const Options& options);
  // Source-compatible forms: the vocabulary pointer is ignored.
  Gi2Index(const GridSpec& grid, const Vocabulary* /*unused*/)
      : Gi2Index(grid, Options{}) {}
  Gi2Index(const GridSpec& grid, const Vocabulary* /*unused*/,
           const Options& options)
      : Gi2Index(grid, options) {}

  // Indexes `q` in every grid cell overlapping q.region.
  void Insert(const STSQuery& q);

  // Indexes `q` only in the given cells (the dispatcher restricts a query
  // to the cells this worker owns). Cells outside q.region's overlap are
  // ignored. Duplicate insertion into a cell the query already occupies is
  // a no-op.
  void InsertIntoCells(const STSQuery& q, const std::vector<CellId>& cells);

  // Removes the query everywhere (lazily by default). Unknown ids are
  // ignored (a deletion may race ahead of its insertion across workers; the
  // paper's dispatcher has the same tolerance).
  void Delete(QueryId id);

  // Matches `o` against the queries of the cell containing o.loc, appending
  // each satisfied query exactly once to `out`. Purges tombstoned postings
  // encountered along the way when lazy deletion is enabled.
  void Match(const SpatioTextualObject& o, std::vector<MatchResult>* out);

  // Batched matching: the objects are grouped by grid cell (stream order
  // preserved within a cell) so each cell's posting table is resolved once
  // and its postings stay hot across the group, then matched exactly like
  // repeated Match() calls. Results are appended to `out` grouped by
  // object; the cell grouping reorders objects, so callers needing global
  // stream order must not batch across ordering boundaries. Steady-state
  // cost is allocation-free: grouping scratch and `out` capacity are
  // reused across calls.
  void MatchBatch(const SpatioTextualObject* const* objects, size_t count,
                  std::vector<MatchResult>* out);

  // --- introspection -------------------------------------------------------
  size_t NumActiveQueries() const { return num_live_; }
  size_t NumTombstones() const { return num_tombstones_; }
  const GridSpec& grid() const { return grid_; }

  // Approximate heap footprint: arena chunks + flat tables + stored queries
  // + the cell directory (see README "Worker hot path").
  size_t MemoryBytes() const;

  struct CellStats {
    CellId cell = 0;
    uint32_t num_queries = 0;     // live queries indexed in the cell
    uint64_t objects_seen = 0;    // objects matched in the cell this period
    size_t query_bytes = 0;       // Sg: total size of the queries in the cell
  };
  std::vector<CellStats> AllCellStats() const;
  CellStats StatsFor(CellId cell) const;

  // Resets per-period object counters (call at the start of each load
  // accounting window).
  void ResetObjectCounters();

  // --- migration -----------------------------------------------------------
  // Removes the given cell and returns the live queries that were indexed in
  // it. Queries also indexed in other cells stay live there; a returned copy
  // carries the full query so the receiving worker can index it.
  std::vector<STSQuery> ExtractCell(CellId cell);

  // Copies of the live queries indexed in `cell`, without removing anything.
  // The live-migration protocol first installs copies at the destination
  // worker, republishes routing, and only then extracts the source cell —
  // in-flight objects keep matching at the source in between.
  std::vector<STSQuery> CellQueries(CellId cell) const;

  // Serialized size in bytes of a cell's content (what a migration of this
  // cell would ship over the network).
  size_t CellMigrationBytes(CellId cell) const;

  // --- test hooks ----------------------------------------------------------
  // Forces the dedup epoch counter so tests can drive it across the 2^32
  // wraparound without 4 billion matches.
  void SetMatchEpochForTest(uint32_t epoch) { match_epoch_ = epoch; }
  uint32_t MatchEpochForTest() const { return match_epoch_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  enum class SlotState : uint8_t { kFree = 0, kLive = 1, kTombstone = 2 };

  struct QuerySlot {
    STSQuery query;
    std::vector<CellId> cells;  // cells holding postings, sorted ascending
    uint32_t postings = 0;      // live posting entries across cells
    uint32_t mark_epoch = 0;    // dedup stamp: emitted during this epoch
    uint32_t next_free = kNone;
    SlotState state = SlotState::kFree;
  };

  struct Cell {
    FlatMap<TermId, PostingArena::List> postings;
    uint32_t num_queries = 0;  // live queries indexed in this cell
    uint64_t objects_seen = 0;
    size_t query_bytes = 0;
  };

  Cell* FindCell(CellId cell);
  const Cell* FindCell(CellId cell) const;
  Cell& CellFor(CellId cell);
  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  // Called when the last posting of a tombstoned slot is purged.
  void ReleaseTombstone(uint32_t slot);
  void IndexInCell(const STSQuery& q, uint32_t slot,
                   const std::vector<TermId>& routing_terms, CellId cell);
  // The shared hot loop: matches one object against one cell's postings.
  void MatchInCell(Cell& cell, const SpatioTextualObject& o,
                   std::vector<MatchResult>* out);
  // Advances the dedup epoch, clearing all stamps on 2^32 wraparound.
  void BumpEpoch();
  // Distinct live slots holding postings in `cell`, sorted ascending.
  std::vector<uint32_t> LiveSlotsInCell(const Cell& cell) const;

  GridSpec grid_;
  Options options_;

  PostingArena arena_;
  std::vector<Cell> cell_pool_;
  std::vector<uint32_t> free_cell_recs_;
  // CellId -> index into cell_pool_, kNone when the cell holds nothing. The
  // grid is fixed at construction, so this is a perfect (direct) cell table.
  std::vector<uint32_t> cell_dir_;

  std::vector<QuerySlot> slots_;
  uint32_t free_slot_head_ = kNone;
  FlatMap<QueryId, uint32_t> id_to_slot_;  // live queries only
  size_t num_live_ = 0;
  size_t num_tombstones_ = 0;

  uint32_t match_epoch_ = 0;

  // Reused scratch (never shrunk): batch grouping keys and Insert's cell
  // overlap list.
  std::vector<uint64_t> batch_keys_;
  std::vector<CellId> insert_cells_scratch_;
};

}  // namespace ps2

#endif  // PS2_INDEX_GI2_H_
