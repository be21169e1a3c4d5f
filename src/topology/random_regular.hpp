// Random c-regular graphs: the guest class U'.
//
// The lower bound (Section 3) ranges over U', the class of 16-regular
// n-processor networks.  We generate uniform-ish random members via the
// configuration (pairing) model with local repair of self-loops and parallel
// edges -- the standard practical sampler; for degrees as high as 16 pure
// rejection would essentially never terminate.
#pragma once

#include <cstdint>

#include "src/topology/graph.hpp"
#include "src/util/rng.hpp"

namespace upn {

/// Degree of the guest class U' in Section 3 of the paper.
inline constexpr std::uint32_t kGuestDegree = 16;

/// A random simple c-regular graph on n nodes (n*c even, c < n).
/// Pairing model plus endpoint-swap repair; throws if repair fails to
/// converge (practically impossible for c << n).
[[nodiscard]] Graph make_random_regular(std::uint32_t n, std::uint32_t c, Rng& rng);

/// A random member of U'[G_0]: the union of a given base graph (degree b)
/// and a random (c - b)-regular graph, repaired to avoid duplicating base
/// edges.  Max degree <= c; matches the planted-subgraph guests of the
/// lower-bound proof.
[[nodiscard]] Graph make_random_regular_with_subgraph(const Graph& base, std::uint32_t c,
                                                      Rng& rng);

}  // namespace upn
