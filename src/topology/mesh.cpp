#include "src/topology/mesh.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>


namespace upn {

namespace {
std::uint32_t abs_diff(std::uint32_t a, std::uint32_t b) noexcept {
  return a > b ? a - b : b - a;
}
}  // namespace

std::uint32_t Grid2D::mesh_distance(NodeId u, NodeId v) const noexcept {
  return abs_diff(x_of(u), x_of(v)) + abs_diff(y_of(u), y_of(v));
}

std::uint32_t Grid2D::torus_distance(NodeId u, NodeId v) const noexcept {
  const std::uint32_t dx = abs_diff(x_of(u), x_of(v));
  const std::uint32_t dy = abs_diff(y_of(u), y_of(v));
  return std::min(dx, width - dx) + std::min(dy, height - dy);
}

Graph make_mesh(std::uint32_t width, std::uint32_t height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument{"make_mesh: dimensions must be positive"};
  }
  const Grid2D grid{width, height};
  GraphBuilder builder{grid.num_nodes(),
                       "mesh(" + std::to_string(width) + "x" + std::to_string(height) + ")"};
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      if (x + 1 < width) builder.add_edge(grid.id(x, y), grid.id(x + 1, y));
      if (y + 1 < height) builder.add_edge(grid.id(x, y), grid.id(x, y + 1));
    }
  }
  return std::move(builder).build();
}

}  // namespace upn
