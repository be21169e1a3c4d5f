#include "src/topology/properties.hpp"

#include <algorithm>

#include "src/util/rng.hpp"

namespace upn {

std::vector<std::uint32_t> bfs_distances(const Graph& graph, NodeId source) {
  std::vector<std::uint32_t> dist(graph.num_nodes(), kUnreachable);
  std::vector<NodeId> frontier{source};
  dist[source] = 0;
  std::uint32_t level = 0;
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (const NodeId v : frontier) {
      for (const NodeId u : graph.neighbors(v)) {
        if (dist[u] == kUnreachable) {
          dist[u] = level;
          next.push_back(u);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

bool is_connected(const Graph& graph) {
  if (graph.num_nodes() == 0) return true;
  const auto dist = bfs_distances(graph, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

std::uint32_t connected_components(const Graph& graph, std::vector<std::uint32_t>* labels) {
  const std::uint32_t n = graph.num_nodes();
  std::vector<std::uint32_t> label(n, kUnreachable);
  std::uint32_t count = 0;
  std::vector<NodeId> stack;
  for (NodeId source = 0; source < n; ++source) {
    if (label[source] != kUnreachable) continue;
    label[source] = count;
    stack.push_back(source);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const NodeId u : graph.neighbors(v)) {
        if (label[u] == kUnreachable) {
          label[u] = count;
          stack.push_back(u);
        }
      }
    }
    ++count;
  }
  if (labels != nullptr) *labels = std::move(label);
  return count;
}

std::uint32_t largest_component_size(const Graph& graph) {
  std::vector<std::uint32_t> labels;
  const std::uint32_t count = connected_components(graph, &labels);
  std::vector<std::uint32_t> sizes(count, 0);
  for (const std::uint32_t c : labels) ++sizes[c];
  return sizes.empty() ? 0u : *std::max_element(sizes.begin(), sizes.end());
}

std::uint32_t min_degree(const Graph& graph) {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::uint32_t d = graph.degree(v);
    if (v == 0 || d < best) best = d;
  }
  return best;
}

bool is_regular(const Graph& graph, std::uint32_t* degree) {
  if (graph.num_nodes() == 0) {
    if (degree != nullptr) *degree = 0;
    return true;
  }
  const std::uint32_t d0 = graph.degree(0);
  for (NodeId v = 1; v < graph.num_nodes(); ++v) {
    if (graph.degree(v) != d0) return false;
  }
  if (degree != nullptr) *degree = d0;
  return true;
}

std::uint32_t eccentricity(const Graph& graph, NodeId source) {
  const auto dist = bfs_distances(graph, source);
  std::uint32_t ecc = 0;
  for (const std::uint32_t d : dist) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t sampled_diameter(const Graph& graph, std::uint32_t samples, std::uint64_t seed) {
  if (graph.num_nodes() == 0) return 0;
  Rng rng{seed};
  std::uint32_t best = 0;
  for (std::uint32_t i = 0; i < samples; ++i) {
    const auto v = static_cast<NodeId>(rng.below(graph.num_nodes()));
    const std::uint32_t ecc = eccentricity(graph, v);
    if (ecc == kUnreachable) return kUnreachable;
    best = std::max(best, ecc);
  }
  return best;
}

}  // namespace upn
