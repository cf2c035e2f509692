#ifndef PS2_DISPATCH_GRIDT_INDEX_H_
#define PS2_DISPATCH_GRIDT_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "partition/plan.h"

namespace ps2 {

// The dispatcher's routing index (Section IV-C): a grid whose cells carry
// two maps —
//   H1: the *static* term -> worker assignment of the partition plan (for
//       text-routed cells; space-routed cells map everything to one worker),
//   H2: the *dynamic* map from terms actually used as routing keys by live
//       STS queries to the workers holding those queries.
// Objects are routed via H2, so an object whose terms match no live query's
// routing key in its cell is discarded at the dispatcher ("the object can be
// discarded if it contains no terms in H2") — a large share of the paper's
// dispatcher-side savings. Query inserts/deletes are routed via H1 and
// update H2 with reference counts (a term key may be used by many queries).
class GridtIndex {
 public:
  // `plan` is the compiled output of a partitioner. Queries carry their
  // routing clause (BoolExpr::ChooseRouting at admission), so the index
  // needs no vocabulary; the two-argument form ignores its pointer and
  // exists for source compatibility.
  explicit GridtIndex(PartitionPlan plan) : plan_(std::move(plan)) {}
  GridtIndex(PartitionPlan plan, const Vocabulary* /*unused*/)
      : GridtIndex(std::move(plan)) {}

  // Routes a query insertion: returns the (worker, cells) destinations and
  // registers the query's routing keys in H2.
  std::vector<PartitionPlan::QueryRoute> RouteInsert(const STSQuery& q);

  // Routes a query deletion (same destinations as the matching insertion
  // under the current plan) and unregisters H2 keys.
  std::vector<PartitionPlan::QueryRoute> RouteDelete(const STSQuery& q);

  // Routes an object through H2. An empty result means no worker holds any
  // query the object could match — the object is discarded.
  void RouteObject(const SpatioTextualObject& o,
                   std::vector<WorkerId>* out) const;

  // Plan-level (H1-only) object routing, ignoring H2 liveness. Used to
  // quantify the H2 optimization.
  void RouteObjectH1(const SpatioTextualObject& o,
                     std::vector<WorkerId>* out) const;

  const PartitionPlan& plan() const { return plan_; }

  // --- dynamic re-routing support (load adjustment) ------------------------
  // Reassigns a space-routed cell to another worker and rewrites its H2
  // entries. Precondition: the cell is space-routed.
  void ReassignCell(CellId cell, WorkerId to);

  // Converts `cell` into a text-routed cell with the given term map and
  // participating workers; existing H2 entries are remapped with
  // `remap(old_worker, term) -> new_worker` semantics via the new router.
  void SetCellTextRoute(CellId cell,
                        std::unordered_map<TermId, WorkerId> term_map,
                        std::vector<WorkerId> workers);

  // Converts `cell` into a space-routed cell owned by `worker`; all H2
  // entries collapse onto that worker.
  void SetCellSpaceRoute(CellId cell, WorkerId worker);

  // In a text-routed cell, remaps every term currently owned by `from`
  // (both H1 and H2) to `to`. Used when migrating a worker's share of a
  // text cell. `from` is replaced by `to` in place in the router's worker
  // list, which is also the hash-fallback table: terms routed by the
  // fallback keep their position, so only `from`'s share changes worker.
  void RemapCellWorker(CellId cell, WorkerId from, WorkerId to);

  // Live H2 worker set of (cell, term) — exposed for tests.
  std::vector<WorkerId> H2Workers(CellId cell, TermId term) const;

  // Full H2 content of one cell (term -> live worker set), used by the
  // snapshot publisher to materialize immutable per-cell routing entries.
  std::unordered_map<TermId, std::vector<WorkerId>> H2CellMap(
      CellId cell) const;

  // Direct H2 maintenance, used when queries are physically moved outside
  // the insert/delete path (cell text splits during load adjustment).
  void AddH2(CellId cell, TermId term, WorkerId worker);
  void RemoveH2(CellId cell, TermId term, WorkerId worker);

  // Approximate dispatcher memory: H1 (plan) + H2 tables. This is what
  // Figure 9 reports per dispatcher.
  size_t MemoryBytes() const;

  size_t NumH2Entries() const;

 private:
  struct H2Cell {
    // term -> (worker, refcount) pairs; vectors stay tiny (a term routes to
    // one worker per plan, more only transiently during adjustments).
    std::unordered_map<TermId, std::vector<std::pair<WorkerId, uint32_t>>>
        entries;
  };

  PartitionPlan plan_;
  std::unordered_map<CellId, H2Cell> h2_;
  // Reused overlap scratch: filled by RouteQuery during RouteInsert /
  // RouteDelete and walked again by their H2 maintenance loops. Callers
  // already serialize mutations (the SnapshotRouter writer lock in the
  // threaded runtime), which also covers this scratch.
  std::vector<CellId> route_cells_scratch_;
};

}  // namespace ps2

#endif  // PS2_DISPATCH_GRIDT_INDEX_H_
