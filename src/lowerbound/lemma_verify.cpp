#include "src/lowerbound/lemma_verify.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"

namespace upn {

Lemma312Report verify_lemma312(const ProtocolMetrics& metrics, const G0& g0) {
  UPN_OBS_SPAN("lowerbound.lemma312.verify");
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

  // Every (block, candidate root) tree is the canonical tree moved by the
  // root's canonical_shift, so all share its depth and size.
  const DependencyTree tree = canonical_dependency_tree(g0.layout);
  const std::uint32_t depth = tree.depth;
  report.tree_depth = depth;
  if (T <= depth) {
    throw std::invalid_argument{"verify_lemma312: protocol too short for the tree depth"};
  }
  const std::size_t max_tree_size = tree.size();
  // Each tree node as (in-block x, in-block y, time offset): block 0's shift
  // is zero, so its in-block coordinates are the canonical ones.
  struct CanonicalNode {
    std::uint32_t x, y, time;
  };
  std::vector<CanonicalNode> canonical;
  canonical.reserve(tree.size());
  for (const TreeNode& node : tree.nodes) {
    const auto [x, y] = g0.layout.local_coords(node.vertex);
    canonical.push_back(CanonicalNode{x, y, node.time});
  }

  // slot j * side^2 + c is candidate c of block j, c = y * side + x in
  // in-block coordinates (the order of G0::block); slots[] is its node id.
  const std::uint32_t side = g0.layout.block_side;
  const std::size_t candidates = std::size_t{side} * side;
  std::vector<NodeId> slots;
  slots.reserve(n);
  for (std::uint32_t j = 0; j < h; ++j) {
    const std::vector<NodeId> block = g0.block(j);
    slots.insert(slots.end(), block.begin(), block.end());
  }
  UPN_INVARIANT(slots.size() == n, "the blocks of G_0 partition its nodes");

  // q_of[i * (T + 1) + t] = q_{i,t}.
  const std::size_t times = std::size_t{T} + 1;
  std::vector<std::uint32_t> q_of(n * times);
  for (NodeId i = 0; i < n; ++i) {
    for (std::uint32_t t = 0; t <= T; ++t) q_of[i * times + t] = metrics.weight(i, t);
  }

  // tree_w[slot * span + idx]: the weight of the slot's tree at
  // t0 = depth + 1 + idx, the sum of q_{v, t0 - depth + tau} over its
  // nodes (v, tau), Def. 3.11.
  const std::uint32_t span = T - depth;
  std::vector<std::uint64_t> tree_w(std::size_t{n} * span, 0);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const NodeId* block = &slots[slot / candidates * candidates];
    const BlockShift shift = canonical_shift(g0.layout, slots[slot]);
    std::uint64_t* w = &tree_w[slot * span];
    for (const CanonicalNode& node : canonical) {
      const NodeId v = block[(node.y + shift.dy) % side * side + (node.x + shift.dx) % side];
      const std::uint32_t* qv = &q_of[v * times + 1 + node.time];
      for (std::uint32_t idx = 0; idx < span; ++idx) w[idx] += qv[idx];
    }
  }

  // ---- The averaging step, with exact Markov thresholds. ----
  // A(t0)  = sum over all candidate trees of their weight at t0;
  // Aq(t0) = sum_i q_{i, t0 - depth}.
  // Z' keeps t0 with A <= 4 avg(A); Z'' with Aq <= 4 avg(Aq).  By Markov
  // each excludes < 1/4 of the span, so |Z| >= span/2 -- a theorem for ANY
  // protocol, mirroring the paper's Z' / Z'' construction.
  std::vector<double> tree_totals(span), q_totals(span);
  double sum_tree_totals = 0, sum_q_totals = 0;
  for (std::uint32_t idx = 0; idx < span; ++idx) {
    double all_trees = 0;
    for (std::size_t slot = 0; slot < n; ++slot) {
      all_trees += static_cast<double>(tree_w[slot * span + idx]);
    }
    double all_q = 0;
    for (NodeId i = 0; i < n; ++i) all_q += q_of[i * times + idx + 1];
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
  std::vector<std::uint64_t> w(candidates), q(candidates);
  for (const std::uint32_t t0 : report.z_set) {
    Lemma312Choice choice;
    choice.t0 = t0;
    const std::uint32_t idx = t0 - depth - 1;
    for (std::uint32_t j = 0; j < h; ++j) {
      const std::size_t first = std::size_t{j} * candidates;
      for (std::size_t c = 0; c < candidates; ++c) {
        w[c] = tree_w[(first + c) * span + idx];
        q[c] = q_of[slots[first + c] * times + (t0 - depth)];
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
      choice.roots.push_back(slots[first + chosen]);
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
    for (NodeId i = 0; i < n; ++i) sum_q += q_of[i * times + t0];
    report.max_sum_q = std::max(report.max_sum_q, sum_q);
  }
  report.bound_sum_q =
      8.0 * static_cast<double>(max_tree_size) * static_cast<double>(n) * k / a2;
  report.sum_q_ok = report.max_sum_q <= report.bound_sum_q;
  return report;
}

}  // namespace upn
