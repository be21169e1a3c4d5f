// Benes / Waksman off-line permutation routing.
//
// Section 2 routes the precomputed permutations of Theorem 2.1's butterfly
// corollary "off-line in O(log m)" [Waksman 1968].  A Benes network on
// N = 2^d rows is rearrangeable: every permutation of the rows can be
// realized with node-disjoint paths, one level at a time.  We implement the
// classic looping (2-coloring) algorithm.
//
// Level structure used here (chosen to map 1:1 onto the unwrapped butterfly,
// see offline_butterfly.hpp): 2d+1 wire levels 0..2d; the stage from level
// s to s+1 may flip exactly bit b(s), with b(s) = s for s < d (forward
// sweep) and b(s) = 2d-1-s for s >= d (backward sweep).  At every level the
// packet positions form a permutation of the rows, so the paths are
// node-disjoint at each level.
#pragma once

#include <cstdint>
#include <vector>

namespace upn {

/// Node-disjoint Benes paths for a permutation.
struct BenesPaths {
  std::uint32_t dimension = 0;  ///< d; N = 2^d rows, 2d+1 levels
  /// rows[i][level] = row of the packet starting at input row i, for
  /// level in [0, 2d].  rows[i][0] == i and rows[i][2d] == perm[i].
  std::vector<std::vector<std::uint32_t>> rows;
};

/// Computes Benes paths realizing `perm` (perm[i] = destination row of the
/// packet entering at row i).  perm must be a permutation of [0, 2^d) for
/// some d >= 1; throws otherwise.
[[nodiscard]] BenesPaths benes_route(const std::vector<std::uint32_t>& perm);

}  // namespace upn
