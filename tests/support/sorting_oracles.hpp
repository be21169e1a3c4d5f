// Sorting-network references only tests use: the bitonic sorter's closed-form
// depth, odd-even transposition sort (depth exactly n, nearest-neighbor
// comparators only) as a column sorter and a known-good sorting network, and
// the exhaustive 0-1-principle check that a network sorts.
#pragma once

#include <cstdint>

#include "src/sorting/comparator_network.hpp"

namespace upn {

/// Depth of the bitonic sorter on n = 2^k wires: k(k+1)/2.
[[nodiscard]] std::uint32_t bitonic_depth(std::uint32_t n);

/// The odd-even transposition sorting network on n wires (any n >= 2).
[[nodiscard]] ComparatorNetwork make_odd_even_transposition_sorter(std::uint32_t n);

/// Exhaustive 0-1-principle check that `network` sorts every input; only
/// feasible for wires <= ~22 (more throws std::invalid_argument).
[[nodiscard]] bool is_sorting_network(const ComparatorNetwork& network);

}  // namespace upn
