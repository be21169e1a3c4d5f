// Two-dimensional meshes and the Grid2D coordinate helper.
//
// Definition 3.8 of the paper: the n-mesh is the graph on [N] x [N] with
// N = sqrt(n) whose edges connect nodes at L1-distance 1.  We generalize to
// width x height rectangles; the square case matches the paper.
#pragma once

#include <cstdint>

#include "src/topology/graph.hpp"

namespace upn {

/// Row-major indexing of a width x height grid of nodes.
struct Grid2D {
  std::uint32_t width = 0;
  std::uint32_t height = 0;

  [[nodiscard]] constexpr std::uint32_t num_nodes() const noexcept { return width * height; }
  [[nodiscard]] constexpr NodeId id(std::uint32_t x, std::uint32_t y) const noexcept {
    return y * width + x;
  }
  [[nodiscard]] constexpr std::uint32_t x_of(NodeId v) const noexcept { return v % width; }
  [[nodiscard]] constexpr std::uint32_t y_of(NodeId v) const noexcept { return v / width; }
};

/// The width x height mesh.
[[nodiscard]] Graph make_mesh(std::uint32_t width, std::uint32_t height);

}  // namespace upn
