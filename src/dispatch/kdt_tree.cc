#include "dispatch/kdt_tree.h"

#include <algorithm>

namespace ps2 {
namespace {

// True when every cell of the block shares the same routing rule.
bool Uniform(const PartitionPlan& plan, uint32_t cx0, uint32_t cy0,
             uint32_t cx1, uint32_t cy1) {
  const CellRoute& first = plan.cells[plan.grid.ToId(cx0, cy0)];
  for (uint32_t cy = cy0; cy <= cy1; ++cy) {
    for (uint32_t cx = cx0; cx <= cx1; ++cx) {
      const CellRoute& r = plan.cells[plan.grid.ToId(cx, cy)];
      if (r.text.get() != first.text.get()) return false;
      if (!r.IsText() && r.worker != first.worker) return false;
    }
  }
  return true;
}

}  // namespace

KdtTree::KdtTree(const PartitionPlan& plan) : plan_(&plan) {
  root_ = BuildNode(plan, 0, 0, plan.grid.side() - 1, plan.grid.side() - 1, 1);
}

std::unique_ptr<KdtTree::TreeNode> KdtTree::BuildNode(
    const PartitionPlan& plan, uint32_t cx0, uint32_t cy0, uint32_t cx1,
    uint32_t cy1, int depth) {
  auto node = std::make_unique<TreeNode>();
  node->cx0 = cx0;
  node->cy0 = cy0;
  node->cx1 = cx1;
  node->cy1 = cy1;
  depth_ = std::max(depth_, depth);
  if (Uniform(plan, cx0, cy0, cx1, cy1)) {
    node->route = plan.cells[plan.grid.ToId(cx0, cy0)];
    ++num_leaves_;
    return node;
  }
  // Bisect the longer axis (blocks are route-heterogeneous, so they are
  // always splittable here: a 1x1 block is trivially uniform).
  if (cx1 - cx0 >= cy1 - cy0) {
    node->axis = 0;
    node->split = (cx0 + cx1) / 2 + 1;
    node->left = BuildNode(plan, cx0, cy0, node->split - 1, cy1, depth + 1);
    node->right = BuildNode(plan, node->split, cy0, cx1, cy1, depth + 1);
  } else {
    node->axis = 1;
    node->split = (cy0 + cy1) / 2 + 1;
    node->left = BuildNode(plan, cx0, cy0, cx1, node->split - 1, depth + 1);
    node->right = BuildNode(plan, cx0, node->split, cx1, cy1, depth + 1);
  }
  return node;
}

const KdtTree::TreeNode* KdtTree::FindLeaf(uint32_t cx, uint32_t cy) const {
  const TreeNode* node = root_.get();
  while (!node->IsLeaf()) {
    const uint32_t coord = node->axis == 0 ? cx : cy;
    node = coord < node->split ? node->left.get() : node->right.get();
  }
  return node;
}

void KdtTree::RouteObject(const SpatioTextualObject& o,
                          std::vector<WorkerId>* out) const {
  out->clear();
  const GridSpec& grid = plan_->grid;
  const CellId cell = grid.CellOf(o.loc);
  const TreeNode* leaf = FindLeaf(grid.CellX(cell), grid.CellY(cell));
  if (!leaf->route.IsText()) {
    out->push_back(leaf->route.worker);
    return;
  }
  for (const TermId t : o.terms) out->push_back(leaf->route.text->Route(t));
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void KdtTree::CollectLeaves(const TreeNode* node, uint32_t cx0, uint32_t cy0,
                            uint32_t cx1, uint32_t cy1,
                            std::vector<const TreeNode*>* out) const {
  if (cx1 < node->cx0 || cx0 > node->cx1 || cy1 < node->cy0 ||
      cy0 > node->cy1) {
    return;
  }
  if (node->IsLeaf()) {
    out->push_back(node);
    return;
  }
  CollectLeaves(node->left.get(), cx0, cy0, cx1, cy1, out);
  CollectLeaves(node->right.get(), cx0, cy0, cx1, cy1, out);
}

void KdtTree::RouteQuery(const STSQuery& q,
                         std::vector<PartitionPlan::QueryRoute>* out) const {
  out->clear();
  const GridSpec& grid = plan_->grid;
  uint32_t cx0, cy0, cx1, cy1;
  if (!grid.CellRange(q.region, &cx0, &cy0, &cx1, &cy1)) return;
  std::vector<const TreeNode*> leaves;
  CollectLeaves(root_.get(), cx0, cy0, cx1, cy1, &leaves);
  std::unordered_map<WorkerId, std::vector<CellId>> per_worker;
  for (const TreeNode* leaf : leaves) {
    // Cells of the leaf clipped to the query's cell range.
    const uint32_t lx0 = std::max(cx0, leaf->cx0);
    const uint32_t ly0 = std::max(cy0, leaf->cy0);
    const uint32_t lx1 = std::min(cx1, leaf->cx1);
    const uint32_t ly1 = std::min(cy1, leaf->cy1);
    std::vector<WorkerId> targets;
    if (!leaf->route.IsText()) {
      targets.push_back(leaf->route.worker);
    } else {
      for (const TermId t : q.expr.RoutingTerms()) {
        targets.push_back(leaf->route.text->Route(t));
      }
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
    }
    for (const WorkerId w : targets) {
      auto& cells = per_worker[w];
      for (uint32_t cy = ly0; cy <= ly1; ++cy) {
        for (uint32_t cx = lx0; cx <= lx1; ++cx) {
          cells.push_back(grid.ToId(cx, cy));
        }
      }
    }
  }
  for (auto& [worker, cells] : per_worker) {
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    out->push_back(PartitionPlan::QueryRoute{worker, std::move(cells)});
  }
  std::sort(out->begin(), out->end(),
            [](const auto& a, const auto& b) { return a.worker < b.worker; });
}

}  // namespace ps2
