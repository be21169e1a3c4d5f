// Immutable undirected graph in compressed-sparse-row form.
//
// Every network in the paper -- guests G in U', the fixed subgraph G_0, and
// host networks M -- is a finite undirected graph whose vertices are
// processors and whose edges are communication links.  Graph stores the
// adjacency structure once, sorted, with O(1) degree and O(log deg) adjacency
// queries; all topology builders in this module produce Graph values.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace upn {

using NodeId = std::uint32_t;

/// An undirected simple graph (no self-loops, no parallel edges).
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return offsets_.empty() ? 0u : static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept { return adjacency_.size() / 2; }

  [[nodiscard]] std::uint32_t degree(NodeId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Maximum degree over all nodes (0 for the empty graph).
  [[nodiscard]] std::uint32_t max_degree() const noexcept;

  /// Neighbors of v in ascending order.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }

  /// Flat CSR row-offset array: size num_nodes()+1 (empty for the empty
  /// graph); offsets()[v] .. offsets()[v+1] delimits v's slice of
  /// adjacency().  Hot paths (the packet engine) cache the raw pointers
  /// once instead of constructing a neighbors() span per query.
  [[nodiscard]] std::span<const std::uint32_t> offsets() const noexcept { return offsets_; }

  /// Flat concatenated adjacency array: size 2*num_edges(), ascending within
  /// each node's offsets() slice.  Each index is one directed link slot.
  [[nodiscard]] std::span<const NodeId> adjacency() const noexcept { return adjacency_; }

  /// True iff {u, v} is an edge.  O(log deg(u)).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  /// Human-readable topology name set by the builder ("butterfly(4)", ...).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// All edges as (u, v) pairs with u < v, lexicographically sorted.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edge_list() const;

  friend class GraphBuilder;

 private:
  std::vector<std::uint32_t> offsets_;   // size num_nodes()+1
  std::vector<NodeId> adjacency_;        // size 2*num_edges(), sorted per node
  std::string name_;
};

/// Accumulates edges (duplicates and self-loops are dropped) and emits a Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::uint32_t num_nodes, std::string name = "graph");

  /// Adds undirected edge {u, v}.  Self-loops are silently ignored;
  /// duplicates are deduplicated at build() time.  Out-of-range ids throw.
  void add_edge(NodeId u, NodeId v);

  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return num_nodes_; }

  /// Consumes the builder and produces the immutable graph.
  [[nodiscard]] Graph build() &&;

 private:
  std::uint32_t num_nodes_;
  std::string name_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

/// The union of two graphs on the same vertex set (edge sets merged).
[[nodiscard]] Graph graph_union(const Graph& a, const Graph& b, std::string name);

}  // namespace upn
