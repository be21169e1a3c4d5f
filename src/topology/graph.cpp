#include "src/topology/graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/util/contracts.hpp"

namespace upn {

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) best = std::max(best, degree(v));
  return best;
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Graph::edge_list() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const NodeId v : neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

GraphBuilder::GraphBuilder(std::uint32_t num_nodes, std::string name)
    : num_nodes_(num_nodes), name_(std::move(name)) {}

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  if (u >= num_nodes_ || v >= num_nodes_) {
    throw std::out_of_range{"GraphBuilder::add_edge: node id out of range"};
  }
  if (u == v) return;
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() && {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph graph;
  graph.name_ = std::move(name_);
  graph.offsets_.assign(num_nodes_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++graph.offsets_[u + 1];
    ++graph.offsets_[v + 1];
  }
  for (std::uint32_t i = 1; i <= num_nodes_; ++i) {
    graph.offsets_[i] += graph.offsets_[i - 1];
  }
  graph.adjacency_.resize(2 * edges_.size());
  std::vector<std::uint32_t> cursor(graph.offsets_.begin(), graph.offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    graph.adjacency_[cursor[u]++] = v;
    graph.adjacency_[cursor[v]++] = u;
  }
  // Per-node adjacency is already sorted: edges were sorted as (min,max) pairs,
  // but the v->u back-edges arrive in u order, which is sorted too, and the
  // two runs interleave.  Sort each node's slice to be safe and canonical.
  for (NodeId v = 0; v < num_nodes_; ++v) {
    std::sort(graph.adjacency_.begin() + graph.offsets_[v],
              graph.adjacency_.begin() + graph.offsets_[v + 1]);
  }
  UPN_ENSURE(graph.offsets_.back() == graph.adjacency_.size(),
             "CSR offsets must cover the adjacency array");
  UPN_ENSURE(graph.num_edges() == edges_.size(), "every deduplicated edge must be stored");
  UPN_ENSURE(std::is_sorted(graph.offsets_.begin(), graph.offsets_.end()),
             "CSR offsets must be monotone");
  return graph;
}

Graph graph_union(const Graph& a, const Graph& b, std::string name) {
  if (a.num_nodes() != b.num_nodes()) {
    throw std::invalid_argument{"graph_union: vertex sets differ"};
  }
  GraphBuilder builder{a.num_nodes(), std::move(name)};
  for (const auto& [u, v] : a.edge_list()) builder.add_edge(u, v);
  for (const auto& [u, v] : b.edge_list()) builder.add_edge(u, v);
  Graph result = std::move(builder).build();
  UPN_ENSURE(result.num_edges() >= a.num_edges() && result.num_edges() >= b.num_edges(),
             "a union contains both edge sets");
  return result;
}

}  // namespace upn
