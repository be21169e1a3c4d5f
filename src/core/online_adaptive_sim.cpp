#include "src/core/online_adaptive_sim.hpp"

#include <stdexcept>
#include <utility>

#include "src/core/embedding.hpp"
#include "src/core/guest_step.hpp"
#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"

namespace upn {

OnlineAdaptiveSimulator::OnlineAdaptiveSimulator(const Graph& guest, const Graph& host,
                                                 std::vector<NodeId> embedding,
                                                 const FaultPlan& plan)
    : guest_(&guest), host_(&host), plan_(&plan), embedding_(std::move(embedding)) {
  UPN_OBS_SPAN("sim.online.embed");
  if (embedding_.size() != guest.num_nodes()) {
    throw std::invalid_argument{"OnlineAdaptiveSimulator: embedding size != guest size"};
  }
  load_ = embedding_load(embedding_, host.num_nodes());
  UPN_ENSURE(static_cast<std::uint64_t>(load_) * host.num_nodes() >= guest.num_nodes(),
             "embedding load must cover all guests");
}

OnlineAdaptiveSimResult OnlineAdaptiveSimulator::run(std::uint32_t guest_steps,
                                                     const OnlineAdaptiveSimOptions& options) {
  UPN_OBS_SPAN("sim.online.run");
  const Graph& guest = *guest_;
  const std::uint32_t n = guest.num_nodes();

  // One PERSISTENT router for the whole run: tables learned during guest
  // step t keep serving step t+1, and the fault clock advances continuously
  // across phases -- this is what makes the regime online rather than a
  // per-step rebuild.
  OnlineRouter router{*host_, *plan_};

  OnlineAdaptiveSimResult result;
  result.guest_steps = guest_steps;
  result.load = load_;

  {
    UPN_OBS_SPAN("sim.online.warmup");
    const ConvergenceReport warmup = router.run_until_stable(options.warmup_rounds);
    result.warmup_rounds = warmup.rounds;
    result.warmup_stable = warmup.stable;
    UPN_OBS_COUNT("sim.online.warmup_rounds", warmup.rounds);
  }

  // Guests boot knowing their neighbors' start state, and a lost packet
  // leaves the slot's last delivered configuration: a stale read.
  GuestStepKernel kernel{guest, embedding_, options.seed};
  const DeliverFn deliver = std::bind_front(&GuestStepKernel::deliver, &kernel);
  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    UPN_OBS_STEP(t);
    // ---- Phase 1: communication over the adapting tables. ----
    {
      UPN_OBS_SPAN("sim.online.route");
      const StepPayloads step = kernel.step_payloads();
      result.packets_routed += step.demands.size();
      UPN_OBS_COUNT("sim.online.packets_routed", step.demands.size());
      if (!step.demands.empty()) {
        const OnlineRouteResult routed =
            route_demands_online(router, options.max_comm_steps, step, deliver);
        result.comm_steps += routed.steps;
        result.packets_lost += routed.lost;
        UPN_OBS_COUNT("sim.online.comm_steps", routed.steps);
      }
    }

    // ---- Phase 2: computation; missing payloads become stale reads. ----
    UPN_OBS_SPAN("sim.online.compute");
    result.stale_reads += kernel.compute();
    result.compute_steps += load_;
    UPN_OBS_COUNT("sim.online.compute_steps", load_);
  }

  // Every lost packet denied exactly one (receiver, step) refresh.
  UPN_ENSURE(result.stale_reads == result.packets_lost,
             "every stale read must come from exactly one lost packet");
  UPN_OBS_COUNT("sim.online.stale_reads", result.stale_reads);
  UPN_OBS_COUNT("sim.online.packets_lost", result.packets_lost);

  result.host_steps = result.comm_steps + result.compute_steps;
  result.slowdown = per_guest_step(result.host_steps, guest_steps);
  result.inefficiency = n == 0 ? 0.0 : result.slowdown * host_->num_nodes() / n;

  // ---- End-to-end verification against the direct execution. ----
  UPN_OBS_SPAN("sim.online.validate");
  result.configs_match = kernel.configs_match();
  UPN_ENSURE(result.stale_reads > 0 || guest_steps == 0 || result.configs_match,
             "with every packet delivered the online regime must be exact");
  UPN_OBS_COUNT("sim.online.runs", 1);
  return result;
}

}  // namespace upn
