// Sorting as routing: the Galil-Paul route to universality.
//
// Galil & Paul [6]: a network that sorts n keys in sort(n, m) steps is
// n-universal with slowdown O(sort(n, m)).  The mechanism is that routing a
// (full) permutation reduces to sorting packets by destination: after the
// sort, the packet destined for position j sits at position j.  Partial
// permutations are completed with dummy packets; h-relations decompose into
// h permutations first (decompose.hpp).
//
// The comparator-network layers bound the communication steps on any host
// whose edges realize each layer (one layer = one step on hypercubic hosts
// for bitonic).  The GP experiment compares this O(log^2 m)-per-round cost
// against the paper's direct O(log m) off-line routing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/routing/hh_problem.hpp"
#include "src/sorting/comparator_network.hpp"

namespace upn {

struct SortRouteStats {
  std::uint32_t rounds = 0;            ///< permutation rounds routed
  std::uint64_t comparator_steps = 0;  ///< total layers executed
  bool delivered = false;              ///< all packets reached their dst
};

/// One record the sort delivered: the demand index that rode through the
/// comparators, the node it landed on, and that demand's payload.
struct SortRecord {
  std::uint32_t demand = 0;
  std::uint32_t node = 0;
  std::uint64_t payload = 0;
};

/// Routes an arbitrary h-relation on an array of sorter.wires() positions:
/// decomposes it into partial permutations, completes each with dummy
/// packets, and destination-sorts each round.  `payloads[i]` is the data of
/// the i-th demand; on return, `records` lists every record that arrived (in
/// round order).  This makes sorting-based routing a real data mover, so the
/// Galil-Paul simulator can be verified end to end.
struct SortRouteDelivery {
  SortRouteStats stats;
  std::vector<SortRecord> records;
};
[[nodiscard]] SortRouteDelivery deliver_relation_by_sorting(
    const HhProblem& problem, std::span<const std::uint64_t> payloads,
    const ComparatorNetwork& sorter);

}  // namespace upn
