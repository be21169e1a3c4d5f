// Batcher's bitonic sorter: depth O(log^2 n), and -- crucially for the
// Galil-Paul route to universality -- every layer's comparators are aligned
// with one hypercube dimension, so a layer costs one communication step on
// hypercubic hosts.
#pragma once

#include <cstdint>

#include "src/sorting/comparator_network.hpp"

namespace upn {

/// The bitonic sorting network on n = 2^k wires.
[[nodiscard]] ComparatorNetwork make_bitonic_sorter(std::uint32_t n);

}  // namespace upn
