#include "partition/hybrid.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_set>

#include "partition/load_estimator.h"
#include "spatial/kdtree.h"
#include "text/similarity.h"

namespace ps2 {
namespace {

// A kdt-tree node during construction: a block of grid cells, optionally
// restricted to a term subset (after a text split), plus the indices of the
// sampled objects / insert / delete requests it would receive.
struct Node {
  CellBlock block;
  bool text_restricted = false;
  std::vector<TermId> terms;  // sorted; meaningful when text_restricted
  bool text_only = false;     // member of Nt: may only be split by text

  std::vector<uint32_t> objs;
  std::vector<uint32_t> ins;
  std::vector<uint32_t> dels;
  double load = 0.0;

  bool HasTerm(TermId t) const {
    return std::binary_search(terms.begin(), terms.end(), t);
  }
  bool AcceptsAnyTerm(const std::vector<TermId>& ts) const {
    if (!text_restricted) return true;
    for (const TermId t : ts) {
      if (HasTerm(t)) return true;
    }
    return false;
  }
};

// All per-build state, so HybridPartitioner::Build stays re-entrant.
struct Builder {
  const WorkloadSample& sample;
  const PartitionConfig& cfg;
  GridSpec grid;
  // Precomputed object cells.
  std::vector<CellId> obj_cell;

  Builder(const WorkloadSample& s, const PartitionConfig& c)
      : sample(s), cfg(c), grid(s.Bounds(), c.grid_k) {
    obj_cell.reserve(sample.objects.size());
    for (const auto& o : sample.objects) obj_cell.push_back(grid.CellOf(o.loc));
  }

  bool CellInBlock(CellId c, const CellBlock& b) const {
    return b.ContainsCell(grid.CellX(c), grid.CellY(c));
  }

  bool RegionOverlapsBlock(const Rect& r, const CellBlock& b) const {
    uint32_t cx0, cy0, cx1, cy1;
    if (!grid.CellRange(r, &cx0, &cy0, &cx1, &cy1)) return false;
    return cx0 <= b.cx1 && cx1 >= b.cx0 && cy0 <= b.cy1 && cy1 >= b.cy0;
  }

  // Node load: c1 times the *cell-level* matching work (Definition 3's
  // no * nq summed over the node's cells — every object is only ever
  // matched against the queries stored in its own grid cell) plus the
  // linear handling terms of Definition 1. Worker-granularity |O|*|Q|
  // would systematically overcharge wide sparse nodes and push the
  // algorithm into needless text splits.
  double NodeLoad(const Node& n) const {
    std::unordered_map<CellId, uint32_t> no;
    for (const uint32_t i : n.objs) no[obj_cell[i]]++;
    std::unordered_map<CellId, uint32_t> nq;
    for (const uint32_t i : n.ins) {
      uint32_t cx0, cy0, cx1, cy1;
      if (!grid.CellRange(sample.inserts[i].region, &cx0, &cy0, &cx1,
                          &cy1)) {
        continue;
      }
      cx0 = std::max(cx0, n.block.cx0);
      cy0 = std::max(cy0, n.block.cy0);
      cx1 = std::min(cx1, n.block.cx1);
      cy1 = std::min(cy1, n.block.cy1);
      if (cx0 > cx1 || cy0 > cy1) continue;
      for (uint32_t cy = cy0; cy <= cy1; ++cy) {
        for (uint32_t cx = cx0; cx <= cx1; ++cx) {
          nq[grid.ToId(cx, cy)]++;
        }
      }
    }
    double matching = 0.0;
    for (const auto& [cell, o] : no) {
      auto it = nq.find(cell);
      if (it != nq.end()) matching += static_cast<double>(o) * it->second;
    }
    return cfg.cost.c1 * matching + cfg.cost.c2 * n.objs.size() +
           cfg.cost.c3 * n.ins.size() + cfg.cost.c4 * n.dels.size();
  }

  Node MakeRoot() const {
    Node root;
    root.block = CellBlock{0, 0, grid.side() - 1, grid.side() - 1};
    root.objs.resize(sample.objects.size());
    std::iota(root.objs.begin(), root.objs.end(), 0);
    root.ins.resize(sample.inserts.size());
    std::iota(root.ins.begin(), root.ins.end(), 0);
    root.dels.resize(sample.deletes.size());
    std::iota(root.dels.begin(), root.dels.end(), 0);
    return root;
  }

  // Restricts parent membership to a sub-block (space split child).
  Node MakeSpaceChild(const Node& parent, const CellBlock& block) const {
    Node child;
    child.block = block;
    child.text_restricted = parent.text_restricted;
    child.terms = parent.terms;
    child.text_only = parent.text_only;
    for (const uint32_t i : parent.objs) {
      if (CellInBlock(obj_cell[i], block)) child.objs.push_back(i);
    }
    for (const uint32_t i : parent.ins) {
      if (RegionOverlapsBlock(sample.inserts[i].region, block)) {
        child.ins.push_back(i);
      }
    }
    for (const uint32_t i : parent.dels) {
      if (RegionOverlapsBlock(sample.deletes[i].region, block)) {
        child.dels.push_back(i);
      }
    }
    child.load = NodeLoad(child);
    return child;
  }

  // Restricts parent membership to a term subset (text split child).
  Node MakeTextChild(const Node& parent, std::vector<TermId> terms) const {
    Node child;
    child.block = parent.block;
    child.text_restricted = true;
    child.text_only = true;  // further splits of a text leaf stay textual
    std::sort(terms.begin(), terms.end());
    child.terms = std::move(terms);
    for (const uint32_t i : parent.objs) {
      if (child.AcceptsAnyTerm(sample.objects[i].terms)) {
        child.objs.push_back(i);
      }
    }
    for (const uint32_t i : parent.ins) {
      if (child.AcceptsAnyTerm(sample.inserts[i].expr.RoutingTerms())) {
        child.ins.push_back(i);
      }
    }
    for (const uint32_t i : parent.dels) {
      if (child.AcceptsAnyTerm(sample.deletes[i].expr.RoutingTerms())) {
        child.dels.push_back(i);
      }
    }
    child.load = NodeLoad(child);
    return child;
  }

  // Cosine similarity between the object and query term distributions of a
  // node: simt(On, Qn) in Algorithm 1.
  double TextSimilarity(const Node& n) const {
    TermVector ov, qv;
    for (const uint32_t i : n.objs) {
      for (const TermId t : sample.objects[i].terms) {
        if (!n.text_restricted || n.HasTerm(t)) ov.Add(t);
      }
    }
    for (const uint32_t i : n.ins) {
      for (const TermId t : sample.inserts[i].expr.DistinctTerms()) {
        if (!n.text_restricted || n.HasTerm(t)) qv.Add(t);
      }
    }
    return CosineSimilarity(ov, qv);
  }

  // Per-cell object+insert weight inside a node, for median splits.
  std::vector<double> NodeCellWeights(const Node& n) const {
    std::vector<double> w(grid.NumCells(), 0.0);
    for (const uint32_t i : n.objs) w[obj_cell[i]] += 1.0;
    for (const uint32_t i : n.ins) {
      uint32_t cx0, cy0, cx1, cy1;
      if (!grid.CellRange(sample.inserts[i].region, &cx0, &cy0, &cx1, &cy1)) {
        continue;
      }
      cx0 = std::max(cx0, n.block.cx0);
      cy0 = std::max(cy0, n.block.cy0);
      cx1 = std::min(cx1, n.block.cx1);
      cy1 = std::min(cy1, n.block.cy1);
      for (uint32_t cy = cy0; cy <= cy1; ++cy) {
        for (uint32_t cx = cx0; cx <= cx1; ++cx) {
          w[grid.ToId(cx, cy)] += 1.0;
        }
      }
    }
    return w;
  }

  // Splits a node into two along `axis` at the weighted median; returns
  // children through out-params; false when unsplittable.
  bool SpaceSplit2(const Node& n, int axis, Node* a, Node* b) const {
    const std::vector<double> w = NodeCellWeights(n);
    const auto weight_fn = [&](uint32_t cx, uint32_t cy) {
      return w[grid.ToId(cx, cy)];
    };
    CellBlock lb, rb;
    if (!SplitBlockAxis(n.block, axis, weight_fn, &lb, &rb)) return false;
    *a = MakeSpaceChild(n, lb);
    *b = MakeSpaceChild(n, rb);
    return true;
  }

  // Text-partitions `n` into p children with a node-local LPT over term
  // weights (Definition-1-shaped).
  std::vector<Node> TextSplit(const Node& n, int p) const {
    // Node-local term profile.
    std::unordered_map<TermId, uint32_t> of, qi, qd;
    for (const uint32_t i : n.objs) {
      for (const TermId t : sample.objects[i].terms) {
        if (!n.text_restricted || n.HasTerm(t)) of[t]++;
      }
    }
    for (const uint32_t i : n.ins) {
      for (const TermId t : sample.inserts[i].expr.RoutingTerms()) {
        if (!n.text_restricted || n.HasTerm(t)) qi[t]++;
      }
    }
    for (const uint32_t i : n.dels) {
      for (const TermId t : sample.deletes[i].expr.RoutingTerms()) {
        if (!n.text_restricted || n.HasTerm(t)) qd[t]++;
      }
    }
    std::vector<TermId> terms;
    terms.reserve(of.size() + qi.size());
    for (const auto& [t, _] : of) terms.push_back(t);
    for (const auto& [t, _] : qi) {
      if (!of.count(t)) terms.push_back(t);
    }
    std::sort(terms.begin(), terms.end());
    if (terms.empty()) {
      // Nothing textual to split: replicate the node p times (only the
      // first copy carries the load).
      std::vector<Node> out(1, n);
      return out;
    }
    std::vector<double> weights;
    weights.reserve(terms.size());
    const auto get = [](const std::unordered_map<TermId, uint32_t>& m,
                        TermId t) -> double {
      auto it = m.find(t);
      return it == m.end() ? 0.0 : it->second;
    };
    for (const TermId t : terms) {
      weights.push_back(cfg.cost.c1 * get(of, t) * get(qi, t) +
                        cfg.cost.c2 * get(of, t) + cfg.cost.c3 * get(qi, t) +
                        cfg.cost.c4 * get(qd, t));
    }
    const std::vector<int> bins =
        GreedyLpt(weights, std::max(1, std::min<int>(p, terms.size())));
    const int used = 1 + *std::max_element(bins.begin(), bins.end());
    std::vector<std::vector<TermId>> groups(used);
    for (size_t i = 0; i < terms.size(); ++i) {
      groups[bins[i]].push_back(terms[i]);
    }
    std::vector<Node> out;
    out.reserve(groups.size());
    for (auto& g : groups) {
      if (!g.empty()) out.push_back(MakeTextChild(n, std::move(g)));
    }
    return out;
  }

  // kd-splits `n` into p sub-blocks (heaviest-first), one child per block.
  std::vector<Node> SpaceSplitP(const Node& n, int p) const {
    const std::vector<double> w = NodeCellWeights(n);
    const auto weight_fn = [&](uint32_t cx, uint32_t cy) {
      return w[grid.ToId(cx, cy)];
    };
    // Local kd decomposition of the node's block.
    std::vector<CellBlock> blocks{n.block};
    while (blocks.size() < static_cast<size_t>(p)) {
      // Split the heaviest splittable block.
      size_t heaviest = blocks.size();
      double heaviest_w = -1.0;
      for (size_t i = 0; i < blocks.size(); ++i) {
        if (!blocks[i].CanSplit()) continue;
        double bw = 0.0;
        for (uint32_t cy = blocks[i].cy0; cy <= blocks[i].cy1; ++cy) {
          for (uint32_t cx = blocks[i].cx0; cx <= blocks[i].cx1; ++cx) {
            bw += weight_fn(cx, cy);
          }
        }
        if (bw > heaviest_w) {
          heaviest_w = bw;
          heaviest = i;
        }
      }
      if (heaviest == blocks.size()) break;  // nothing splittable
      CellBlock l, r;
      if (!SplitBlockWeighted(blocks[heaviest], weight_fn, &l, &r)) break;
      blocks[heaviest] = l;
      blocks.push_back(r);
    }
    std::vector<Node> out;
    out.reserve(blocks.size());
    for (const auto& b : blocks) out.push_back(MakeSpaceChild(n, b));
    return out;
  }

  double TotalLoadOf(const std::vector<Node>& nodes) const {
    double sum = 0.0;
    for (const auto& n : nodes) sum += n.load;
    return sum;
  }

  // PartitionNode (Section IV-B): splits `n` into p nodes. Nt members are
  // split by text only; Ns members pick the cheaper of text/space.
  std::vector<Node> PartitionNode(const Node& n, int p) const {
    if (p <= 1) return {n};
    if (n.text_only || n.text_restricted || !n.block.CanSplit()) {
      return TextSplit(n, p);
    }
    std::vector<Node> by_text = TextSplit(n, p);
    std::vector<Node> by_space = SpaceSplitP(n, p);
    return TotalLoadOf(by_text) <= TotalLoadOf(by_space) ? by_text : by_space;
  }
};

// MergeNodesIntoPartitions (Section IV-B, "Node merging"): leaves in
// descending load order are packed onto m partitions. Each leaf goes to the
// partition with the minimum resulting load unless that would worsen the
// balance factor, in which case it goes to the currently lightest one
// (which is the same partition under additive loads — we keep the paper's
// two-step formulation since partition loads here are additive).
std::vector<int> MergeNodesIntoPartitions(const std::vector<Node>& leaves,
                                          int m) {
  std::vector<size_t> order(leaves.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (leaves[a].load != leaves[b].load) {
      return leaves[a].load > leaves[b].load;
    }
    return a < b;
  });
  std::vector<double> part_load(m, 0.0);
  std::vector<int> assignment(leaves.size(), 0);
  for (const size_t i : order) {
    const int lightest = static_cast<int>(
        std::min_element(part_load.begin(), part_load.end()) -
        part_load.begin());
    assignment[i] = lightest;
    part_load[lightest] += leaves[i].load;
  }
  return assignment;
}

double PartitionBalance(const std::vector<Node>& leaves,
                        const std::vector<int>& assignment, int m) {
  std::vector<double> loads(m, 0.0);
  for (size_t i = 0; i < leaves.size(); ++i) {
    loads[assignment[i]] += leaves[i].load;
  }
  return BalanceFactor(loads);
}

}  // namespace

PartitionPlan HybridPartitioner::Build(const WorkloadSample& sample,
                                       const Vocabulary& /*vocab*/,
                                       const PartitionConfig& cfg) const {
  info_ = BuildInfo{};
  Builder b(sample, cfg);
  const int m = cfg.num_workers;

  PartitionPlan plan;
  plan.grid = b.grid;
  plan.num_workers = m;
  plan.cells.resize(b.grid.NumCells());
  if (sample.empty() || m <= 1) {
    return plan;  // everything on worker 0
  }

  // ---- Phase 1: similarity-driven decomposition (Algorithm 1, lines 1-12).
  std::vector<Node> nu{b.MakeRoot()};
  std::vector<Node> nt, ns;
  constexpr size_t kMinSamplesToSplit = 16;
  while (!nu.empty()) {
    Node n = std::move(nu.back());
    nu.pop_back();
    const double sim = b.TextSimilarity(n);
    if (sim >= cfg.delta) {
      ns.push_back(std::move(n));
      continue;
    }
    if (!n.block.CanSplit() ||
        n.objs.size() + n.ins.size() < kMinSamplesToSplit ||
        nt.size() + ns.size() + nu.size() + 2 > cfg.theta) {
      n.text_only = true;
      nt.push_back(std::move(n));
      continue;
    }
    // Split in the direction minimizing alpha = min(sim(n1), sim(n2)).
    Node best_a, best_b;
    double alpha = 2.0;
    for (int axis = 0; axis < 2; ++axis) {
      Node a, c;
      if (!b.SpaceSplit2(n, axis, &a, &c)) continue;
      const double cand =
          std::min(b.TextSimilarity(a), b.TextSimilarity(c));
      if (cand < alpha) {
        alpha = cand;
        best_a = std::move(a);
        best_b = std::move(c);
      }
    }
    if (alpha > 1.0) {  // no split possible on either axis
      n.text_only = true;
      nt.push_back(std::move(n));
      continue;
    }
    if (std::abs(alpha - sim) <= cfg.epsilon) {
      // Splitting does not change the similarity: the node's text profile
      // is spatially consistent -> text-partition it as a whole.
      n.text_only = true;
      nt.push_back(std::move(n));
    } else {
      nu.push_back(std::move(best_a));
      nu.push_back(std::move(best_b));
    }
  }
  info_.phase1_nt_nodes = nt.size();
  info_.phase1_ns_nodes = ns.size();

  // ---- Phase 2 (lines 13-16): grow the node count up to m with the DP.
  std::vector<Node> nodes;
  nodes.reserve(nt.size() + ns.size());
  for (auto& n : nt) nodes.push_back(std::move(n));
  for (auto& n : ns) nodes.push_back(std::move(n));

  if (static_cast<int>(nodes.size()) < m && !cfg.use_number_partitions_dp) {
    // Ablation path: equal split instead of the DP — node i gets
    // ceil/floor(m / n) parts.
    const int n_nodes = static_cast<int>(nodes.size());
    std::vector<Node> expanded;
    for (int i = 0; i < n_nodes; ++i) {
      const int k = m / n_nodes + (i < m % n_nodes ? 1 : 0);
      for (auto& child : b.PartitionNode(nodes[i], std::max(1, k))) {
        expanded.push_back(std::move(child));
      }
    }
    nodes = std::move(expanded);
  } else if (static_cast<int>(nodes.size()) < m) {
    // ComputeNumberPartitions: L[i][j] = min total load partitioning the
    // first i nodes into j parts; C[i][k] = total load of splitting node i
    // into k parts (children cached for reuse).
    const int n_nodes = static_cast<int>(nodes.size());
    const int max_k = m - n_nodes + 1;
    std::vector<std::vector<std::vector<Node>>> children(
        n_nodes);  // children[i][k-1]
    std::vector<std::vector<double>> c(n_nodes,
                                       std::vector<double>(max_k + 1, 0.0));
    for (int i = 0; i < n_nodes; ++i) {
      children[i].resize(max_k);
      for (int k = 1; k <= max_k; ++k) {
        children[i][k - 1] = b.PartitionNode(nodes[i], k);
        c[i][k] = b.TotalLoadOf(children[i][k - 1]);
      }
    }
    constexpr double kInf = 1e300;
    std::vector<std::vector<double>> dp(
        n_nodes + 1, std::vector<double>(m + 1, kInf));
    std::vector<std::vector<int>> choice(n_nodes + 1,
                                         std::vector<int>(m + 1, 0));
    dp[0][0] = 0.0;
    for (int i = 1; i <= n_nodes; ++i) {
      for (int j = i; j <= m; ++j) {
        for (int k = 1; k <= std::min(max_k, j - i + 1); ++k) {
          if (dp[i - 1][j - k] >= kInf) continue;
          const double cand = dp[i - 1][j - k] + c[i - 1][k];
          if (cand < dp[i][j]) {
            dp[i][j] = cand;
            choice[i][j] = k;
          }
        }
      }
    }
    // Backtrack the per-node partition counts; fall back to 1 when the DP
    // had no feasible path (cannot happen with max_k >= 1, kept defensive).
    std::vector<int> parts(n_nodes, 1);
    int j = m;
    for (int i = n_nodes; i >= 1; --i) {
      const int k = choice[i][j] > 0 ? choice[i][j] : 1;
      parts[i - 1] = k;
      j -= k;
    }
    std::vector<Node> expanded;
    for (int i = 0; i < n_nodes; ++i) {
      auto& ch = children[i][parts[i] - 1];
      for (auto& node : ch) expanded.push_back(std::move(node));
    }
    nodes = std::move(expanded);
  }

  // ---- Balance loop (lines 17-27).
  std::vector<int> assignment;
  while (true) {
    assignment = MergeNodesIntoPartitions(nodes, m);
    const double balance = PartitionBalance(nodes, assignment, m);
    if (balance <= cfg.sigma) break;
    if (nodes.size() >= cfg.theta) break;
    // Split the node with the largest load into 2.
    size_t heaviest = 0;
    for (size_t i = 1; i < nodes.size(); ++i) {
      if (nodes[i].load > nodes[heaviest].load) heaviest = i;
    }
    std::vector<Node> split = b.PartitionNode(nodes[heaviest], 2);
    if (split.size() < 2) break;  // cannot split further; accept imbalance
    nodes[heaviest] = std::move(split[0]);
    for (size_t i = 1; i < split.size(); ++i) {
      nodes.push_back(std::move(split[i]));
    }
  }
  info_.final_leaves = nodes.size();

  // ---- Compile the kdt-tree leaves into the per-cell plan.
  // Group text leaves by their block; each block gets one shared router.
  struct BlockKey {
    uint32_t cx0, cy0, cx1, cy1;
    bool operator<(const BlockKey& o) const {
      return std::tie(cx0, cy0, cx1, cy1) <
             std::tie(o.cx0, o.cy0, o.cx1, o.cy1);
    }
  };
  std::map<BlockKey, std::vector<size_t>> text_blocks;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.text_restricted) {
      text_blocks[BlockKey{n.block.cx0, n.block.cy0, n.block.cx1,
                           n.block.cy1}]
          .push_back(i);
      ++info_.text_leaves;
    } else {
      for (const CellId c : n.block.Cells(b.grid)) {
        plan.cells[c].worker = assignment[i];
      }
    }
  }
  for (const auto& [key, leaf_ids] : text_blocks) {
    std::unordered_map<TermId, WorkerId> term_map;
    std::vector<WorkerId> workers;
    for (const size_t i : leaf_ids) {
      const WorkerId w = assignment[i];
      workers.push_back(w);
      for (const TermId t : nodes[i].terms) term_map[t] = w;
    }
    std::sort(workers.begin(), workers.end());
    workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
    auto router = std::make_shared<const TermRouter>(std::move(term_map),
                                                     std::move(workers));
    const CellBlock block{key.cx0, key.cy0, key.cx1, key.cy1};
    for (const CellId c : block.Cells(b.grid)) {
      plan.cells[c].worker = 0;
      plan.cells[c].text = router;
    }
  }

  const PlanLoadReport report = EstimatePlanLoad(plan, sample, cfg.cost);
  info_.estimated_total_load = report.total_load;
  info_.estimated_balance = report.balance;
  return plan;
}

}  // namespace ps2
