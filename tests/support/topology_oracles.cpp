#include "tests/support/topology_oracles.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/topology/mesh.hpp"
#include "src/topology/properties.hpp"
#include "src/topology/torus.hpp"
#include "src/util/math.hpp"

namespace upn {

Graph make_square_mesh(std::uint32_t n) {
  const auto side = static_cast<std::uint32_t>(isqrt(n));
  if (side * side != n) {
    throw std::invalid_argument{"make_square_mesh: n must be a perfect square"};
  }
  return make_mesh(side, side);
}

Graph make_square_torus(std::uint32_t n) {
  const auto side = static_cast<std::uint32_t>(isqrt(n));
  if (side * side != n) {
    throw std::invalid_argument{"make_square_torus: n must be a perfect square"};
  }
  return make_torus(side, side);
}

Graph make_circulant(std::uint32_t n, std::uint32_t c) {
  if (c % 2 != 0 || c / 2 >= (n + 1) / 2) {
    throw std::invalid_argument{"make_circulant: need even c with c/2 < n/2"};
  }
  GraphBuilder builder{n, "circulant(n=" + std::to_string(n) + ",c=" + std::to_string(c) + ")"};
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t j = 1; j <= c / 2; ++j) builder.add_edge(v, (v + j) % n);
  }
  return std::move(builder).build();
}

std::uint32_t diameter(const Graph& graph) {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::uint32_t ecc = eccentricity(graph, v);
    if (ecc == kUnreachable) return kUnreachable;
    best = std::max(best, ecc);
  }
  return best;
}

std::uint32_t girth(const Graph& graph) {
  const std::uint32_t n = graph.num_nodes();
  std::uint32_t best = kUnreachable;
  std::vector<std::uint32_t> dist(n);
  std::vector<NodeId> parent(n);
  for (NodeId source = 0; source < n; ++source) {
    std::fill(dist.begin(), dist.end(), kUnreachable);
    std::fill(parent.begin(), parent.end(), n);
    std::queue<NodeId> queue;
    dist[source] = 0;
    queue.push(source);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop();
      for (const NodeId u : graph.neighbors(v)) {
        if (dist[u] == kUnreachable) {
          dist[u] = dist[v] + 1;
          parent[u] = v;
          queue.push(u);
        } else if (u != parent[v]) {
          // Non-tree edge: the shortest cycle through `source` touching it
          // has length dist[v] + dist[u] + 1.
          best = std::min(best, dist[v] + dist[u] + 1);
        }
      }
    }
  }
  return best;
}

}  // namespace upn
