// Sorting-network references only tests use: the bitonic sorter's closed-form
// depth, and odd-even transposition sort (depth exactly n, nearest-neighbor
// comparators only) as a column sorter and a known-good sorting network.
#pragma once

#include <cstdint>

#include "src/sorting/comparator_network.hpp"

namespace upn {

/// Depth of the bitonic sorter on n = 2^k wires: k(k+1)/2.
[[nodiscard]] std::uint32_t bitonic_depth(std::uint32_t n);

/// The odd-even transposition sorting network on n wires (any n >= 2).
[[nodiscard]] ComparatorNetwork make_odd_even_transposition_sorter(std::uint32_t n);

}  // namespace upn
