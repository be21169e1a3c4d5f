#include "src/lowerbound/dependency_tree.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"

namespace upn {

namespace {

/// Inclusive rectangle in canonical (translated) block coordinates.
struct Rect {
  std::uint32_t x0, x1, y0, y1;
  [[nodiscard]] std::uint32_t width() const noexcept { return x1 - x0 + 1; }
  [[nodiscard]] std::uint32_t height() const noexcept { return y1 - y0 + 1; }
  [[nodiscard]] bool single() const noexcept { return x0 == x1 && y0 == y1; }
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> center() const noexcept {
    return {(x0 + x1) / 2, (y0 + y1) / 2};
  }
};

struct Builder {
  const MultitorusLayout* layout;
  std::uint32_t block_x0, block_y0;  ///< top-left of the block in the grid
  BlockShift shift;                  ///< translation so the root is centered
  std::vector<TreeNode> nodes;
  std::vector<std::uint32_t> leaf_candidates;

  /// Canonical (x, y) -> global node id, applying the torus translation.
  [[nodiscard]] NodeId to_global(std::uint32_t x, std::uint32_t y) const {
    const std::uint32_t side = layout->block_side;
    const std::uint32_t gx = block_x0 + (x + shift.dx) % side;
    const std::uint32_t gy = block_y0 + (y + shift.dy) % side;
    return layout->grid().id(gx, gy);
  }

  std::uint32_t add_node(std::uint32_t x, std::uint32_t y, std::uint32_t time,
                         std::int32_t parent) {
    nodes.push_back(TreeNode{to_global(x, y), time, parent});
    return static_cast<std::uint32_t>(nodes.size() - 1);
  }

  /// Monotone x-then-y path from node `from` (at canonical (fx, fy)) to
  /// (tx, ty); returns the index of the node at the target (== from if the
  /// path is empty).
  std::uint32_t add_path(std::uint32_t from, std::uint32_t fx, std::uint32_t fy,
                         std::uint32_t tx, std::uint32_t ty) {
    std::uint32_t at = from;
    std::uint32_t x = fx, y = fy;
    std::uint32_t time = nodes[from].time;
    while (x != tx) {
      x = x < tx ? x + 1 : x - 1;
      at = add_node(x, y, ++time, static_cast<std::int32_t>(at));
    }
    while (y != ty) {
      y = y < ty ? y + 1 : y - 1;
      at = add_node(x, y, ++time, static_cast<std::int32_t>(at));
    }
    return at;
  }

  /// Covers `rect`; `entry` (a node index at canonical (ex, ey) inside rect)
  /// already exists.
  void cover(const Rect& rect, std::uint32_t entry, std::uint32_t ex, std::uint32_t ey) {
    if (rect.single()) {
      leaf_candidates.push_back(entry);
      return;
    }
    // Split along the longer side; near half contains the entry point.
    Rect near = rect, far = rect;
    if (rect.width() >= rect.height()) {
      const std::uint32_t xm = (rect.x0 + rect.x1) / 2;
      if (ex <= xm) {
        near.x1 = xm;
        far.x0 = xm + 1;
      } else {
        near.x0 = xm + 1;
        far.x1 = xm;
      }
    } else {
      const std::uint32_t ym = (rect.y0 + rect.y1) / 2;
      if (ey <= ym) {
        near.y1 = ym;
        far.y0 = ym + 1;
      } else {
        near.y0 = ym + 1;
        far.y1 = ym;
      }
    }
    const auto [fcx, fcy] = far.center();
    const auto [ncx, ncy] = near.center();
    // Child 1: courier path to the far half's center.
    const std::uint32_t far_entry = add_path(entry, ex, ey, fcx, fcy);
    // Child 2: a self-edge step, then a path to the near half's center.
    const std::uint32_t self_node =
        add_node(ex, ey, nodes[entry].time + 1, static_cast<std::int32_t>(entry));
    const std::uint32_t near_entry = add_path(self_node, ex, ey, ncx, ncy);
    cover(far, far_entry, fcx, fcy);
    cover(near, near_entry, ncx, ncy);
  }
};

/// The canonical rectangle of a block: its whole side x side square.
Rect full_block(const MultitorusLayout& layout) {
  return Rect{0, layout.block_side - 1, 0, layout.block_side - 1};
}

}  // namespace

BlockShift canonical_shift(const MultitorusLayout& layout, NodeId root) {
  const std::uint32_t side = layout.block_side;
  const auto [cx, cy] = full_block(layout).center();
  const auto [rx, ry] = layout.local_coords(root);
  return BlockShift{(rx + side - cx % side) % side, (ry + side - cy % side) % side};
}

DependencyTree canonical_dependency_tree(const MultitorusLayout& layout) {
  UPN_REQUIRE(layout.block_side > 0);
  const auto [cx, cy] = full_block(layout).center();
  return build_block_dependency_tree(layout, 0, layout.grid().id(cx, cy));
}

DependencyTree build_block_dependency_tree(const MultitorusLayout& layout, std::uint32_t block,
                                           NodeId root) {
  UPN_OBS_SPAN("lowerbound.deptree.build");
  UPN_REQUIRE(layout.block_side > 0);
  if (block >= layout.num_blocks()) {
    throw std::out_of_range{"build_block_dependency_tree: block out of range"};
  }
  if (layout.block_of(root) != block) {
    throw std::invalid_argument{"build_block_dependency_tree: root not in block"};
  }
  const std::uint32_t side = layout.block_side;

  Builder builder;
  builder.layout = &layout;
  builder.block_x0 = (block % layout.blocks_per_row()) * side;
  builder.block_y0 = (block / layout.blocks_per_row()) * side;

  // Translate so the root lands at the canonical rectangle center.
  const Rect full = full_block(layout);
  const auto [cx, cy] = full.center();
  builder.shift = canonical_shift(layout, root);

  const std::uint32_t root_index = builder.add_node(cx, cy, 0, -1);
  if (builder.nodes[root_index].vertex != root) {
    throw std::logic_error{"build_block_dependency_tree: translation failed to center root"};
  }
  builder.cover(full, root_index, cx, cy);

  // Pad every leaf candidate with self-edges to the maximum completion time.
  std::uint32_t depth = 0;
  for (const std::uint32_t c : builder.leaf_candidates) {
    depth = std::max(depth, builder.nodes[c].time);
  }
  DependencyTree tree;
  tree.depth = depth;
  for (const std::uint32_t c : builder.leaf_candidates) {
    std::uint32_t at = c;
    const NodeId vertex = builder.nodes[c].vertex;
    for (std::uint32_t t = builder.nodes[c].time; t < depth; ++t) {
      builder.nodes.push_back(TreeNode{vertex, t + 1, static_cast<std::int32_t>(at)});
      at = static_cast<std::uint32_t>(builder.nodes.size() - 1);
    }
    tree.leaves.push_back(at);
  }
  tree.nodes = std::move(builder.nodes);
  // Growth metrics for the Gamma-tree machinery: how large and deep the
  // courier trees get as block sides scale.
  UPN_OBS_COUNT("lowerbound.deptree.trees_built", 1);
  UPN_OBS_COUNT("lowerbound.deptree.nodes", tree.nodes.size());
  UPN_OBS_HIST("lowerbound.deptree.tree_size", tree.nodes.size());
  UPN_OBS_HIST("lowerbound.deptree.depth", tree.depth);
  UPN_OBS_GAUGE_MAX("lowerbound.deptree.max_depth", tree.depth);
  return tree;
}

bool validate_dependency_tree(const DependencyTree& tree, const Graph& graph,
                              const std::vector<NodeId>& block_nodes) {
  UPN_REQUIRE(graph.num_nodes() > 0);
  if (tree.nodes.empty()) return false;
  if (tree.nodes.front().parent != -1 || tree.nodes.front().time != 0) return false;

  std::vector<std::uint32_t> out_degree(tree.nodes.size(), 0);
  for (std::uint32_t i = 1; i < tree.nodes.size(); ++i) {
    const TreeNode& node = tree.nodes[i];
    if (node.parent < 0 || static_cast<std::uint32_t>(node.parent) >= tree.nodes.size()) {
      return false;
    }
    const TreeNode& parent = tree.nodes[static_cast<std::uint32_t>(node.parent)];
    if (node.time != parent.time + 1) return false;  // not a Gamma-edge in time
    if (node.vertex != parent.vertex && !graph.has_edge(node.vertex, parent.vertex)) {
      return false;  // not a Gamma-edge in space
    }
    if (++out_degree[static_cast<std::uint32_t>(node.parent)] > 2) return false;  // not binary
  }
  // Leaves: exactly the block nodes, each once, all at time `depth`.
  std::vector<NodeId> leaf_vertices;
  leaf_vertices.reserve(tree.leaves.size());
  for (const std::uint32_t leaf : tree.leaves) {
    if (leaf >= tree.nodes.size() || tree.nodes[leaf].time != tree.depth) return false;
    if (out_degree[leaf] != 0) return false;
    leaf_vertices.push_back(tree.nodes[leaf].vertex);
  }
  std::vector<NodeId> expected = block_nodes;
  std::sort(leaf_vertices.begin(), leaf_vertices.end());
  std::sort(expected.begin(), expected.end());
  return leaf_vertices == expected;
}

std::string dependency_tree_to_dot(const DependencyTree& tree) {
  UPN_REQUIRE(!tree.nodes.empty());
  std::ostringstream out;
  out << "digraph dependency_tree {\n  rankdir=TB;\n  node [shape=circle];\n";
  for (std::uint32_t i = 0; i < tree.nodes.size(); ++i) {
    const TreeNode& node = tree.nodes[i];
    out << "  n" << i << " [label=\"P" << node.vertex << "\\nt+" << node.time << "\"];\n";
    if (node.parent >= 0) {
      out << "  n" << node.parent << " -> n" << i << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace upn
