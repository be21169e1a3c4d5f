#include "tests/support/sorting_oracles.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/math.hpp"

namespace upn {

std::uint32_t bitonic_depth(std::uint32_t n) {
  if (!is_power_of_two(n) || n < 2) {
    throw std::invalid_argument{"bitonic_depth: n must be a power of two >= 2"};
  }
  const std::uint32_t k = floor_log2(n);
  return k * (k + 1) / 2;
}

ComparatorNetwork make_odd_even_transposition_sorter(std::uint32_t n) {
  if (n < 2) {
    throw std::invalid_argument{"make_odd_even_transposition_sorter: n must be >= 2"};
  }
  ComparatorNetwork network{n, "oets(" + std::to_string(n) + ")"};
  for (std::uint32_t round = 0; round < n; ++round) {
    network.begin_layer();
    for (std::uint32_t i = round % 2; i + 1 < n; i += 2) {
      network.add(i, i + 1);
    }
  }
  return network;
}

bool is_sorting_network(const ComparatorNetwork& network) {
  const std::uint32_t wires = network.wires();
  if (wires > 22) {
    throw std::invalid_argument{"is_sorting_network: exhaustive check limited to 22 wires"};
  }
  std::vector<std::uint64_t> values(wires);
  for (std::uint64_t pattern = 0; pattern < (std::uint64_t{1} << wires); ++pattern) {
    for (std::uint32_t w = 0; w < wires; ++w) values[w] = (pattern >> w) & 1u;
    network.apply(values);
    if (!std::is_sorted(values.begin(), values.end())) return false;
  }
  return true;
}

}  // namespace upn
