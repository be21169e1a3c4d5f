#include "src/core/galil_paul.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/embedding.hpp"
#include "src/core/guest_step.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/sorting/bitonic.hpp"
#include "src/sorting/sort_route.hpp"
#include "src/util/math.hpp"

namespace upn {

GalilPaulCost galil_paul_step_cost(const Graph& guest, std::uint32_t m) {
  if (m == 0) throw std::invalid_argument{"galil_paul_step_cost: m must be positive"};
  const auto sorter_size = static_cast<std::uint32_t>(next_power_of_two(m));
  const ComparatorNetwork sorter = make_bitonic_sorter(std::max(2u, sorter_size));

  const std::vector<NodeId> embedding = make_block_embedding(guest.num_nodes(), m);
  const HhProblem relation = guest_step_relation(guest, embedding, sorter.wires());
  const std::vector<std::uint64_t> payloads(relation.size());
  const SortRouteStats stats = deliver_relation_by_sorting(relation, payloads, sorter).stats;

  GalilPaulCost cost;
  cost.rounds = stats.rounds;
  cost.sorter_depth = sorter.depth();
  cost.steps_per_guest_step =
      stats.comparator_steps + embedding_load(embedding, m);
  cost.slowdown = static_cast<double>(cost.steps_per_guest_step);
  cost.delivered = stats.delivered;
  return cost;
}

GalilPaulSimResult run_galil_paul(const Graph& guest, std::uint32_t m,
                                  std::uint32_t guest_steps, std::uint64_t seed) {
  if (m == 0) throw std::invalid_argument{"run_galil_paul: m must be positive"};
  const auto wires = std::max(2u, static_cast<std::uint32_t>(next_power_of_two(m)));
  const ComparatorNetwork sorter = make_bitonic_sorter(wires);
  const std::vector<NodeId> embedding = make_block_embedding(guest.num_nodes(), m);
  const std::uint32_t load = embedding_load(embedding, m);

  // The per-step relation is fixed; demand d is relation entry d.  Each
  // step the sorting network physically moves the configurations.
  GuestStepKernel kernel{guest, embedding, seed};
  const HhProblem relation = guest_step_relation(guest, embedding, wires);

  GalilPaulSimResult result;
  result.guest_steps = guest_steps;
  const DeliverFn deliver = std::bind_front(&GuestStepKernel::deliver, &kernel);
  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    result.host_steps += sort_demands(relation, sorter, kernel.step_payloads(), deliver) + load;
    kernel.compute_lossless("run_galil_paul");
  }
  result.slowdown = per_guest_step(result.host_steps, guest_steps);
  result.configs_match = kernel.configs_match();
  return result;
}

}  // namespace upn
