#include "src/sorting/sort_route.hpp"

#include <deque>
#include <limits>
#include <map>
#include <stdexcept>

#include "src/routing/decompose.hpp"

namespace upn {

namespace {

/// Key layout: destination in the high 32 bits, source in the low 32 bits,
/// so sorting by key sorts by destination and the payload rides along.
constexpr std::uint64_t pack(std::uint32_t dst, std::uint32_t src) {
  return (static_cast<std::uint64_t>(dst) << 32) | src;
}
constexpr std::uint32_t unpack_dst(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}

}  // namespace

SortRouteDelivery deliver_relation_by_sorting(const HhProblem& problem,
                                              std::span<const std::uint64_t> payloads,
                                              const ComparatorNetwork& sorter) {
  const std::uint32_t n = problem.num_nodes();
  if (n != sorter.wires()) {
    throw std::invalid_argument{"deliver_relation_by_sorting: size mismatch"};
  }
  if (payloads.size() != problem.size()) {
    throw std::invalid_argument{"deliver_relation_by_sorting: payload count mismatch"};
  }
  constexpr std::uint64_t kDummy = std::numeric_limits<std::uint64_t>::max();

  // Recover demand identity: bucket global indices by (src, dst).
  std::map<std::pair<NodeId, NodeId>, std::deque<std::uint64_t>> buckets;
  for (std::size_t d = 0; d < problem.demands().size(); ++d) {
    const Demand& demand = problem.demands()[d];
    buckets[{demand.src, demand.dst}].push_back(d);
  }

  SortRouteDelivery delivery;
  delivery.records.reserve(problem.size());
  delivery.stats.delivered = true;
  std::vector<std::uint64_t> keys(n), slots(n);
  for (const PermutationRound& round : decompose_into_permutations(problem)) {
    std::vector<std::uint32_t> dst_of(n, 0xffffffffu);
    std::vector<std::uint64_t> index_of(n, kDummy);
    std::vector<char> dst_used(n, 0);
    for (const Demand& d : round) {
      dst_of[d.src] = d.dst;
      dst_used[d.dst] = 1;
      auto& bucket = buckets[{d.src, d.dst}];
      index_of[d.src] = bucket.front();
      bucket.pop_front();
    }
    std::uint32_t free_dst = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (dst_of[v] != 0xffffffffu) continue;
      while (dst_used[free_dst]) ++free_dst;
      dst_of[v] = free_dst;
      dst_used[free_dst] = 1;
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      keys[v] = pack(dst_of[v], v);
      slots[v] = index_of[v];
    }
    sorter.apply_with_payload(keys, slots);
    for (std::uint32_t j = 0; j < n; ++j) {
      if (unpack_dst(keys[j]) != j) {
        delivery.stats.delivered = false;
        continue;
      }
      if (slots[j] != kDummy) {
        delivery.records.push_back(
            SortRecord{static_cast<std::uint32_t>(slots[j]), j, payloads[slots[j]]});
      }
    }
    delivery.stats.rounds += 1;
    delivery.stats.comparator_steps += sorter.depth();
  }
  return delivery;
}

}  // namespace upn
