// Graph builders and exact measurements only tests use: the paper's square
// n-mesh and n-torus, circulant graphs for the property sweeps, and the
// all-pairs diameter and girth the topology tests pin known values with.
// The library keeps the sampled measurements (sampled_diameter) that its
// benches and examples need.
#pragma once

#include <cstdint>

#include "src/topology/graph.hpp"

namespace upn {

/// The paper's n-mesh: sqrt(n) x sqrt(n); n must be a perfect square.
[[nodiscard]] Graph make_square_mesh(std::uint32_t n);

/// The paper's n-torus: sqrt(n) x sqrt(n); n must be a perfect square.
[[nodiscard]] Graph make_square_torus(std::uint32_t n);

/// The circulant graph C_n(1, 2, ..., c/2): v ~ v +- j (mod n).  Exactly
/// c-regular for even c with c/2 < n/2.
[[nodiscard]] Graph make_circulant(std::uint32_t n, std::uint32_t c);

/// Exact diameter via n BFS runs.  Intended for graphs up to a few thousand
/// nodes; returns kUnreachable for disconnected graphs.
[[nodiscard]] std::uint32_t diameter(const Graph& graph);

/// Length of a shortest cycle (kUnreachable for forests).  BFS from every
/// node; O(n * m) -- intended for the library's moderate graph sizes.
[[nodiscard]] std::uint32_t girth(const Graph& graph);

}  // namespace upn
