#ifndef PS2_DISPATCH_KDT_TREE_H_
#define PS2_DISPATCH_KDT_TREE_H_

#include <memory>
#include <vector>

#include "partition/plan.h"

namespace ps2 {

// The kdt-tree as a *dispatcher index* (Section IV-C): a binary space
// decomposition whose leaves carry either a worker id or a TermRouter.
// Routing walks root-to-leaf in O(log #leaves).
//
// The paper notes this tree "may overload the dispatcher when arrival
// speeds are very fast" and replaces it with the O(1) gridt index; we build
// the tree from a PartitionPlan (recursively bisecting the grid until every
// region is route-uniform) so the two representations are provably
// equivalent (see kdt_tree_test) and the gridt-vs-kdt dispatch cost is
// ablatable (bench_ablation_dispatch).
class KdtTree {
 public:
  // Builds the tree from a compiled plan. The plan must outlive the tree
  // (leaf routers are shared).
  explicit KdtTree(const PartitionPlan& plan);

  // Workers an object is sent to (same contract as PartitionPlan).
  void RouteObject(const SpatioTextualObject& o,
                   std::vector<WorkerId>* out) const;

  // Workers + cells a query is sent to (same contract as PartitionPlan).
  void RouteQuery(const STSQuery& q,
                  std::vector<PartitionPlan::QueryRoute>* out) const;

  size_t NumLeaves() const { return num_leaves_; }
  int Depth() const { return depth_; }

 private:
  struct TreeNode {
    // Cell-coordinate block this node covers (inclusive).
    uint32_t cx0, cy0, cx1, cy1;
    // Interior: split axis (0=x, 1=y) and the first cell coordinate of the
    // right child. Leaves: route.
    int axis = -1;
    uint32_t split = 0;
    std::unique_ptr<TreeNode> left, right;
    CellRoute route;  // valid for leaves
    bool IsLeaf() const { return axis < 0; }
  };

  std::unique_ptr<TreeNode> BuildNode(const PartitionPlan& plan, uint32_t cx0,
                                      uint32_t cy0, uint32_t cx1,
                                      uint32_t cy1, int depth);
  const TreeNode* FindLeaf(uint32_t cx, uint32_t cy) const;
  void CollectLeaves(const TreeNode* node, uint32_t cx0, uint32_t cy0,
                     uint32_t cx1, uint32_t cy1,
                     std::vector<const TreeNode*>* out) const;

  const PartitionPlan* plan_;
  std::unique_ptr<TreeNode> root_;
  size_t num_leaves_ = 0;
  int depth_ = 0;
};

}  // namespace ps2

#endif  // PS2_DISPATCH_KDT_TREE_H_
