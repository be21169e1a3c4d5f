#include "src/sorting/bitonic.hpp"

#include <stdexcept>
#include <string>

#include "src/util/math.hpp"

namespace upn {

ComparatorNetwork make_bitonic_sorter(std::uint32_t n) {
  if (!is_power_of_two(n) || n < 2) {
    throw std::invalid_argument{"make_bitonic_sorter: n must be a power of two >= 2"};
  }
  ComparatorNetwork network{n, "bitonic(" + std::to_string(n) + ")"};
  // Standard iterative formulation: stage k merges bitonic runs of length
  // 2^k; within a stage, j halves from 2^(k-1) down to 1.
  for (std::uint32_t k = 2; k <= n; k <<= 1) {
    for (std::uint32_t j = k >> 1; j > 0; j >>= 1) {
      network.begin_layer();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t partner = i ^ j;
        if (partner <= i) continue;
        // Ascending blocks where bit k of i is 0, descending otherwise.
        if ((i & k) == 0) {
          network.add(i, partner);
        } else {
          network.add(partner, i);
        }
      }
    }
  }
  return network;
}

}  // namespace upn
