// Structural graph properties: connectivity, distances, regularity.
//
// Used throughout tests (every builder's invariants) and by the routing
// substrate (BFS next-hop tables) and the lower-bound machinery (torus
// diameters, spreading arguments).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/topology/graph.hpp"

namespace upn {

/// Marker for unreachable nodes in distance vectors.
inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// BFS distances from `source` (kUnreachable where disconnected).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& graph, NodeId source);

[[nodiscard]] bool is_connected(const Graph& graph);

/// Connected components in BFS discovery order.  Writes the per-node
/// component index to *labels when non-null; returns the component count.
[[nodiscard]] std::uint32_t connected_components(const Graph& graph,
                                                 std::vector<std::uint32_t>* labels = nullptr);

/// Number of nodes in the largest connected component (0 for empty graphs).
[[nodiscard]] std::uint32_t largest_component_size(const Graph& graph);

/// Minimum degree over all nodes (0 for the empty graph).
[[nodiscard]] std::uint32_t min_degree(const Graph& graph);

/// True iff all degrees are equal; writes the common degree to *degree.
[[nodiscard]] bool is_regular(const Graph& graph, std::uint32_t* degree = nullptr);

/// Largest BFS eccentricity from `source`.
[[nodiscard]] std::uint32_t eccentricity(const Graph& graph, NodeId source);

/// Lower bound on the diameter from `samples` random-source BFS runs.
[[nodiscard]] std::uint32_t sampled_diameter(const Graph& graph, std::uint32_t samples,
                                             std::uint64_t seed = 1);

}  // namespace upn
