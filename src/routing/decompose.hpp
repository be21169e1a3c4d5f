// Decomposition of h-relations into (partial) permutations.
//
// Section 2: "the ceil(n/m)-ceil(n/m) routing problem ... can be solved by
// routing O(n/m) permutations that depend on G only, and, therefore, are
// known in advance."  The underlying combinatorics is Koenig's edge-coloring
// theorem: an h-regular bipartite multigraph decomposes into exactly h
// perfect matchings.  We realize it constructively:
//
//   1. pad the demand multigraph (sources x destinations) to h-regular by
//      adding dummy demands between deficient nodes;
//   2. while h is even, split the multigraph into two (h/2)-regular halves
//      along Eulerian circuits;
//   3. when h is odd, peel one perfect matching with Hopcroft-Karp.
//
// Each resulting round is a partial permutation: no node sources or receives
// more than one (real) packet.
#pragma once

#include <cstdint>
#include <vector>

#include "src/routing/hh_problem.hpp"

namespace upn {

/// One round: demands with pairwise-distinct sources and pairwise-distinct
/// destinations (dummy padding demands are dropped).
using PermutationRound = std::vector<Demand>;

/// Decomposes `problem` into at most h(problem) rounds (exactly h after
/// padding).  Every original demand appears in exactly one round.
[[nodiscard]] std::vector<PermutationRound> decompose_into_permutations(
    const HhProblem& problem);

}  // namespace upn
