#include "src/topology/mesh.hpp"

#include <stdexcept>
#include <string>

namespace upn {

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
