// Cube-connected cycles: the hypercube with each degree-d corner replaced by
// a d-cycle.  Constant degree 3; one of the classic universal-network
// candidates cited in Section 1 (sorting-based universality via [5, 6]).
#pragma once

#include <cstdint>

#include "src/topology/graph.hpp"

namespace upn {

/// CCC node ids: (corner, position) -> corner * d + position.
struct CccLayout {
  std::uint32_t dimension = 0;
  [[nodiscard]] constexpr std::uint32_t num_nodes() const noexcept {
    return dimension << dimension;
  }
  [[nodiscard]] constexpr NodeId id(std::uint32_t corner, std::uint32_t pos) const noexcept {
    return corner * dimension + pos;
  }
};

[[nodiscard]] Graph make_cube_connected_cycles(std::uint32_t dimension);

}  // namespace upn
