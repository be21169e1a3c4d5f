#include "src/topology/torus.hpp"

#include <stdexcept>
#include <string>


namespace upn {

Graph make_torus(std::uint32_t width, std::uint32_t height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument{"make_torus: dimensions must be positive"};
  }
  const Grid2D grid{width, height};
  GraphBuilder builder{grid.num_nodes(),
                       "torus(" + std::to_string(width) + "x" + std::to_string(height) + ")"};
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      builder.add_edge(grid.id(x, y), grid.id((x + 1) % width, y));
      builder.add_edge(grid.id(x, y), grid.id(x, (y + 1) % height));
    }
  }
  return std::move(builder).build();
}

}  // namespace upn
