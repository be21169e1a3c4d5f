// Dependency trees in Gamma_{G_0} (Lemma 3.10, Figure 1).
//
// For each (4a^2)-torus block T_j of G_0 and any root vertex P_i in T_j,
// Lemma 3.10 promises a binary tree in the dependency graph rooted at
// (P_i, t - a) whose leaves are exactly T_j x {t}, of size at most 48 a^2.
// The construction is the paper's recursive torus partition: translate the
// block torus so the root is the center (tori are vertex-transitive), split
// the region in half, send one courier along a monotone path to the far
// half's center while a self-chain continues into the near half, recurse,
// and finally pad every branch with self-edges so all leaves sit at one
// common time.
//
// Every structural promise is checked by validate_dependency_tree: binary
// branching, Gamma-edges only, leaves cover the block exactly once at a
// uniform time.  The measured depth is ~2a rather than the paper's stated a
// (an L x L torus has diameter L, not L/2); benches report the measured
// constants, and the downstream lemmas use the measured depth.
#pragma once

#include <cstdint>
#include <vector>

#include "src/topology/graph.hpp"
#include "src/topology/multitorus.hpp"

namespace upn {

struct TreeNode {
  NodeId vertex = 0;       ///< guest node id
  std::uint32_t time = 0;  ///< time offset from the root (root = 0)
  std::int32_t parent = -1;
};

struct DependencyTree {
  std::vector<TreeNode> nodes;        ///< nodes[0] is the root
  std::vector<std::uint32_t> leaves;  ///< indices of leaf nodes
  std::uint32_t depth = 0;            ///< uniform leaf time

  [[nodiscard]] std::size_t size() const noexcept { return nodes.size(); }
  [[nodiscard]] NodeId root_vertex() const noexcept { return nodes.front().vertex; }
};

/// Builds the dependency tree of block `block` of the multitorus layout,
/// rooted at `root` (which must lie in that block).
[[nodiscard]] DependencyTree build_block_dependency_tree(const MultitorusLayout& layout,
                                                         std::uint32_t block, NodeId root);

/// The torus translation build_block_dependency_tree applies to put `root`
/// at the canonical centre: canonical in-block position (x, y) is the node
/// at in-block coordinates ((x + dx) % block_side, (y + dy) % block_side)
/// of root's block.
struct BlockShift {
  std::uint32_t dx = 0;
  std::uint32_t dy = 0;
};
[[nodiscard]] BlockShift canonical_shift(const MultitorusLayout& layout, NodeId root);

/// The tree of block 0 rooted at the canonical centre, where the shift is
/// zero: each node's in-block coordinates are its canonical (x, y).  The
/// construction runs in canonical coordinates only, so every block's tree
/// for every root is this tree with each node moved by canonical_shift.
[[nodiscard]] DependencyTree canonical_dependency_tree(const MultitorusLayout& layout);

/// Checks the tree against the Lemma 3.10 promises relative to `graph`
/// (the multitorus, or any supergraph of it): out-degree <= 2, every
/// parent-child step is a Gamma-edge (same vertex or a graph edge), leaves
/// are exactly `block_nodes` (each once) at a common time.
[[nodiscard]] bool validate_dependency_tree(const DependencyTree& tree, const Graph& graph,
                                            const std::vector<NodeId>& block_nodes);

/// Renders the tree in Graphviz DOT (the Figure 1 regeneration).
[[nodiscard]] std::string dependency_tree_to_dot(const DependencyTree& tree);

}  // namespace upn
