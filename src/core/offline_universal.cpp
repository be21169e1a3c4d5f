#include "src/core/offline_universal.hpp"

#include <stdexcept>

#include "src/core/embedding.hpp"
#include "src/core/guest_step.hpp"
#include "src/routing/offline_butterfly.hpp"
#include "src/topology/butterfly.hpp"

namespace upn {

OfflineUniversalResult run_offline_universal(const Graph& guest,
                                             std::uint32_t butterfly_dimension,
                                             const std::vector<NodeId>& embedding,
                                             std::uint32_t guest_steps, std::uint64_t seed) {
  const std::uint32_t m = ButterflyLayout{butterfly_dimension, /*wrapped=*/false}.num_nodes();
  if (embedding.size() != guest.num_nodes()) {
    throw std::invalid_argument{"run_offline_universal: embedding size != guest size"};
  }

  // The communication relation is per-(G, f) fixed: schedule it once and
  // replay it every guest step ("known in advance").  Packet d of the
  // schedule is the kernel's demand d.
  GuestStepKernel kernel{guest, embedding, seed};
  const HhProblem relation = guest_step_relation(guest, embedding, m);
  const OfflineSchedule schedule = route_relation_offline(butterfly_dimension, relation);
  if (!validate_schedule(schedule, relation)) {
    throw std::logic_error{"run_offline_universal: schedule failed validation"};
  }
  const std::uint32_t load = embedding_load(embedding, m);

  OfflineUniversalResult result;
  result.guest_steps = guest_steps;
  result.schedule_steps = schedule.num_steps;
  result.num_batches = schedule.num_batches;

  const DeliverFn deliver = std::bind_front(&GuestStepKernel::deliver, &kernel);
  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    result.host_steps +=
        replay_schedule(schedule.moves, schedule.num_steps, kernel.step_payloads(), deliver) +
        load;
    kernel.compute_lossless("run_offline_universal");
  }

  result.compute_steps = load;
  result.host_steps_single_port = guest_steps * (2 * schedule.num_steps + load);
  result.slowdown = per_guest_step(result.host_steps, guest_steps);
  result.slowdown_single_port = per_guest_step(result.host_steps_single_port, guest_steps);
  result.configs_match = kernel.configs_match();
  return result;
}

}  // namespace upn
