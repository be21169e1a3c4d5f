#include "tests/support/reference_lemma312.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/lowerbound/dependency_tree.hpp"

namespace upn::testing {

namespace {

/// Weight of a dependency tree anchored so its leaves sit at guest time t0:
/// sum of q_{v, t0 - depth + tau} over all tree nodes (v, tau), Def. 3.11.
std::uint64_t tree_weight(const DependencyTree& tree, const ProtocolMetrics& metrics,
                          std::uint32_t t0) {
  const std::uint32_t base = t0 - tree.depth;
  std::uint64_t total = 0;
  for (const TreeNode& node : tree.nodes) {
    total += metrics.weight(node.vertex, base + node.time);
  }
  return total;
}

}  // namespace

Lemma312Report reference_verify_lemma312(const ProtocolMetrics& metrics, const G0& g0) {
  const std::uint32_t n = metrics.num_guests();
  if (n != g0.num_nodes()) {
    throw std::invalid_argument{"verify_lemma312: protocol and G_0 sizes differ"};
  }
  const std::uint32_t T = metrics.guest_steps();
  const std::uint32_t h = g0.num_blocks();
  const std::uint32_t a = g0.a;
  const double k = metrics.inefficiency();

  Lemma312Report report;
  report.inefficiency = k;

  // Build one dependency tree per (block, candidate root).
  std::vector<std::vector<DependencyTree>> trees(h);
  std::vector<std::vector<NodeId>> block_nodes(h);
  std::size_t max_tree_size = 0;
  for (std::uint32_t j = 0; j < h; ++j) {
    block_nodes[j] = g0.block(j);
    trees[j].reserve(block_nodes[j].size());
    for (const NodeId root : block_nodes[j]) {
      trees[j].push_back(build_block_dependency_tree(g0.layout, j, root));
      max_tree_size = std::max(max_tree_size, trees[j].back().size());
    }
  }
  const std::uint32_t depth = trees[0][0].depth;
  report.tree_depth = depth;
  if (T <= depth) {
    throw std::invalid_argument{"verify_lemma312: protocol too short for the tree depth"};
  }

  // ---- The averaging step, with exact Markov thresholds. ----
  // A(t0)  = sum over all candidate trees of their weight at t0;
  // Aq(t0) = sum_i q_{i, t0 - depth}.
  // Z' keeps t0 with A <= 4 avg(A); Z'' with Aq <= 4 avg(Aq).  By Markov
  // each excludes < 1/4 of the span, so |Z| >= span/2 -- a theorem for ANY
  // protocol, mirroring the paper's Z' / Z'' construction.
  const std::uint32_t span = T - depth;
  std::vector<double> tree_totals(span), q_totals(span);
  double sum_tree_totals = 0, sum_q_totals = 0;
  for (std::uint32_t idx = 0; idx < span; ++idx) {
    const std::uint32_t t0 = depth + 1 + idx;
    double all_trees = 0;
    for (std::uint32_t j = 0; j < h; ++j) {
      for (const auto& tree : trees[j]) {
        all_trees += static_cast<double>(tree_weight(tree, metrics, t0));
      }
    }
    double all_q = 0;
    for (NodeId i = 0; i < n; ++i) all_q += metrics.weight(i, t0 - depth);
    tree_totals[idx] = all_trees;
    q_totals[idx] = all_q;
    sum_tree_totals += all_trees;
    sum_q_totals += all_q;
  }
  const double z1_bound = 4.0 * sum_tree_totals / span;
  const double z2_bound = 4.0 * sum_q_totals / span;
  for (std::uint32_t idx = 0; idx < span; ++idx) {
    if (tree_totals[idx] <= z1_bound && q_totals[idx] <= z2_bound) {
      report.z_set.push_back(depth + 1 + idx);
    }
  }
  report.z_large_enough = 4 * report.z_set.size() >= span;

  // ---- Per t0 in Z: choose roots r_j and check (1) and (2). ----
  // r_j is picked from the intersection of the 3a^2 lightest candidates by
  // tree weight (V'_j) and by root weight (V''_j); the intersection has
  // >= 2a^2 members since each set drops only a^2 of the 4a^2 candidates.
  const double a2 = static_cast<double>(a) * a;
  for (const std::uint32_t t0 : report.z_set) {
    Lemma312Choice choice;
    choice.t0 = t0;
    for (std::uint32_t j = 0; j < h; ++j) {
      const std::size_t candidates = block_nodes[j].size();
      std::vector<std::uint64_t> w(candidates), q(candidates);
      for (std::size_t c = 0; c < candidates; ++c) {
        w[c] = tree_weight(trees[j][c], metrics, t0);
        q[c] = metrics.weight(block_nodes[j][c], t0 - depth);
      }
      const std::size_t keep = candidates - candidates / 4;  // 3a^2 of 4a^2
      std::vector<std::size_t> by_w(candidates), by_q(candidates);
      std::iota(by_w.begin(), by_w.end(), 0);
      by_q = by_w;
      std::sort(by_w.begin(), by_w.end(),
                [&](std::size_t x, std::size_t y) { return w[x] < w[y]; });
      std::sort(by_q.begin(), by_q.end(),
                [&](std::size_t x, std::size_t y) { return q[x] < q[y]; });
      std::vector<char> in_v1(candidates, 0);
      for (std::size_t rank = 0; rank < keep; ++rank) in_v1[by_w[rank]] = 1;
      std::size_t chosen = candidates;  // sentinel
      for (std::size_t rank = 0; rank < keep; ++rank) {
        if (in_v1[by_q[rank]]) {
          chosen = by_q[rank];
          break;
        }
      }
      if (chosen == candidates) {
        throw std::logic_error{"verify_lemma312: V' and V'' do not intersect"};
      }
      choice.roots.push_back(block_nodes[j][chosen]);
      choice.sum_root_weights += q[chosen];
      choice.sum_tree_weights += w[chosen];
    }
    // Guaranteed bounds: being in the lightest 3a^2 means at least a^2
    // candidates weigh at least as much, so each selected value is at most
    // the block total / a^2; summing over blocks gives Aq(t0)/a^2 and
    // A(t0)/a^2, which Z membership caps at the z-bounds / a^2.
    choice.bound_roots = z2_bound / a2;
    choice.bound_trees = z1_bound / a2;
    // Paper-constant forms, for reporting: 8 (n/a^2) k and 8 B n k / a^2.
    choice.paper_bound_roots = 8.0 * (static_cast<double>(n) / a2) * k;
    choice.paper_bound_trees =
        8.0 * static_cast<double>(max_tree_size) * static_cast<double>(n) * k / a2;
    choice.roots_ok = static_cast<double>(choice.sum_root_weights) <= choice.bound_roots;
    choice.trees_ok = static_cast<double>(choice.sum_tree_weights) <= choice.bound_trees;
    report.choices.push_back(std::move(choice));

    // Lemma 3.13 (2): sum_i q_{i, t0} (covered by the trees' leaves).
    double sum_q = 0;
    for (NodeId i = 0; i < n; ++i) sum_q += metrics.weight(i, t0);
    report.max_sum_q = std::max(report.max_sum_q, sum_q);
  }
  report.bound_sum_q =
      8.0 * static_cast<double>(max_tree_size) * static_cast<double>(n) * k / a2;
  report.sum_q_ok = report.max_sum_q <= report.bound_sum_q;
  return report;
}

}  // namespace upn::testing
