// Two-dimensional tori (meshes with wraparound), Definition 3.8.
#pragma once

#include <cstdint>

#include "src/topology/graph.hpp"
#include "src/topology/mesh.hpp"

namespace upn {

/// The width x height torus: mesh edges plus wraparound edges in both
/// dimensions.  For side <= 2 the wrap edge coincides with a mesh edge and is
/// deduplicated, so degree can drop below 4.
[[nodiscard]] Graph make_torus(std::uint32_t width, std::uint32_t height);

}  // namespace upn
