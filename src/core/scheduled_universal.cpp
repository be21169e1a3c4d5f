#include "src/core/scheduled_universal.hpp"

#include <stdexcept>

#include "src/core/embedding.hpp"
#include "src/core/guest_step.hpp"
#include "src/obs/obs.hpp"
#include "src/routing/path_schedule.hpp"

namespace upn {

ScheduledUniversalResult run_scheduled_universal(const Graph& guest, const Graph& host,
                                                 const std::vector<NodeId>& embedding,
                                                 std::uint32_t guest_steps,
                                                 std::uint64_t seed) {
  const std::uint32_t m = host.num_nodes();
  if (embedding.size() != guest.num_nodes()) {
    throw std::invalid_argument{"run_scheduled_universal: embedding size mismatch"};
  }

  UPN_OBS_SPAN("sim.scheduled.run");
  // Packet d of the schedule is the kernel's demand d.
  GuestStepKernel kernel{guest, embedding, seed};
  const HhProblem relation = guest_step_relation(guest, embedding, m);
  const PathSchedule schedule = [&] {
    UPN_OBS_SPAN("sim.scheduled.schedule");
    return schedule_paths(host, relation);
  }();
  {
    UPN_OBS_SPAN("sim.scheduled.validate");
    if (!validate_path_schedule(host, relation, schedule)) {
      throw std::logic_error{"run_scheduled_universal: schedule failed validation" +
                             obs::context_suffix()};
    }
  }
  const std::vector<ScheduledMove> moves = path_schedule_moves(schedule);
  const std::uint32_t load = embedding_load(embedding, m);
  UPN_OBS_COUNT("sim.scheduled.demands", relation.size());
  UPN_OBS_GAUGE_MAX("sim.scheduled.congestion", schedule.congestion);
  UPN_OBS_GAUGE_MAX("sim.scheduled.dilation", schedule.dilation);
  UPN_OBS_GAUGE_MAX("sim.scheduled.makespan", schedule.makespan);

  ScheduledUniversalResult result;
  result.guest_steps = guest_steps;
  result.schedule_steps = schedule.makespan;
  result.congestion = schedule.congestion;
  result.dilation = schedule.dilation;
  result.compute_steps = load;

  UPN_OBS_SPAN("sim.scheduled.compute");
  const DeliverFn deliver = std::bind_front(&GuestStepKernel::deliver, &kernel);
  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    UPN_OBS_STEP(t);
    result.host_steps +=
        replay_schedule(moves, schedule.makespan, kernel.step_payloads(), deliver) + load;
    kernel.compute_lossless("run_scheduled_universal");
  }
  result.slowdown = per_guest_step(result.host_steps, guest_steps);
  result.configs_match = kernel.configs_match();
  return result;
}

}  // namespace upn
