#include "src/core/universal_sim.hpp"

#include <stdexcept>

#include "src/core/embedding.hpp"
#include "src/core/guest_step.hpp"
#include "src/obs/obs.hpp"
#include "src/routing/policies.hpp"
#include "src/util/contracts.hpp"

namespace upn {

UniversalSimulator::UniversalSimulator(const Graph& guest, const Graph& host,
                                       std::vector<NodeId> embedding)
    : guest_(&guest), host_(&host), embedding_(std::move(embedding)) {
  UPN_OBS_SPAN("sim.universal.embed");
  if (embedding_.size() != guest.num_nodes()) {
    throw std::invalid_argument{"UniversalSimulator: embedding size != guest size"};
  }
  guests_of_ = invert_embedding(embedding_, host.num_nodes());
  load_ = embedding_load(embedding_, host.num_nodes());
  // Theorem 2.1's starting point: every host gets at most ceil(n/m) guests,
  // so load * m must cover the guest set.
  UPN_ENSURE(static_cast<std::uint64_t>(load_) * host.num_nodes() >= guest.num_nodes(),
             "embedding load must cover all guests");
  UPN_OBS_GAUGE_MAX("sim.universal.embedding_load", load_);
}

UniversalSimulator::~UniversalSimulator() = default;

UniversalSimResult UniversalSimulator::run(std::uint32_t guest_steps,
                                           const UniversalSimOptions& options) {
  UPN_OBS_SPAN("sim.universal.run");
  const Graph& guest = *guest_;
  const Graph& host = *host_;
  const std::uint32_t n = guest.num_nodes();

  RoutingPolicy* policy = options.policy;
  if (policy == nullptr) {
    // Lazily built once per simulator, not per run: the greedy policy's BFS
    // distance tables depend only on the host graph, so repeated runs reuse
    // them instead of re-deriving every destination's distances.
    if (default_policy_ == nullptr) default_policy_ = std::make_unique<GreedyPolicy>(host);
    policy = default_policy_.get();
  }
  SyncRouter router{host, options.port_model};

  UniversalSimResult result;
  result.guest_steps = guest_steps;
  result.load = load_;
  if (options.emit_protocol) {
    if (options.port_model != PortModel::kSinglePort) {
      // Multiport transfers are not matchings, so they cannot be expressed
      // as one-operation-per-processor pebble steps.
      throw std::invalid_argument{
          "UniversalSimulator: protocol emission requires the single-port model"};
    }
    result.protocol.emplace(n, host.num_nodes(), guest_steps);
  }

  GuestStepKernel kernel{guest, embedding_, options.seed};
  const DeliverFn deliver = std::bind_front(&GuestStepKernel::deliver, &kernel);
  // Packet i of every route is demand i, whose pebble is its sender's.  The
  // demand list is fixed for the run.
  std::vector<NodeId> senders;
  if (options.emit_protocol) {
    for (const GuestDemand& d : kernel.step_payloads().demands) senders.push_back(d.sender);
  }
  // The last block of host steps emitted op by op: [block_first,
  // block_last), for guest time block_time from a route of
  // block_route_steps router steps.  The router is this run's own, and
  // every call brings the same policy and the same endpoints, so a call the
  // router reports as a replay replays the route that emitted this block:
  // its protocol block is this one with every pebble time raised.
  std::uint32_t block_first = 0;
  std::uint32_t block_last = 0;
  std::uint32_t block_time = 0;
  std::uint32_t block_route_steps = 0;
  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    UPN_OBS_STEP(t);
    // ---- Phase 1: communication (the h-h routing of Theorem 2.1). ----
    bool replayed = false;
    {
      UPN_OBS_SPAN("sim.universal.route");
      const StepPayloads step = kernel.step_payloads();
      result.packets_routed += step.demands.size();
      UPN_OBS_COUNT("sim.universal.packets_routed", step.demands.size());
      // Each router step becomes one protocol step as soon as it is routed;
      // the single-port router guarantees the transfers of a step form a
      // matching, hence one op per processor.
      const std::uint32_t first = options.emit_protocol ? result.protocol->host_steps() : 0;
      const TransferSink emit = options.emit_protocol
                                    ? emit_route_ops(*result.protocol, senders, t - 1)
                                    : TransferSink{};
      const RouteResult routed = route_demands(router, *policy, emit, step, deliver);
      result.comm_steps += routed.steps;
      UPN_OBS_COUNT("sim.universal.comm_steps", routed.steps);
      replayed = options.emit_protocol && routed.replayed;
      if (replayed) {
        UPN_INVARIANT(block_time > 0 && routed.steps == block_route_steps,
                      "a replayed route repeats the route that emitted the last block");
      } else if (options.emit_protocol) {
        block_first = first;
        block_route_steps = routed.steps;
      }
    }

    // ---- Phase 2: computation (sequential per host, parallel across). ----
    UPN_OBS_SPAN("sim.universal.compute");
    kernel.compute_lossless("UniversalSimulator");
    result.compute_steps += load_;
    UPN_OBS_COUNT("sim.universal.compute_steps", load_);
    if (replayed) {
      result.protocol->repeat_steps(block_first, block_last, t - block_time);
    } else if (options.emit_protocol) {
      emit_generate_rounds(&*result.protocol, guests_of_, t);
      block_last = result.protocol->host_steps();
      block_time = t;
    }
  }

  if (options.emit_protocol) {
    // Every router step and every computation round became exactly one
    // pebble-protocol step, so the protocol's T' is the simulated T'.
    UPN_ENSURE(result.protocol->host_steps() == result.comm_steps + result.compute_steps,
               "emitted protocol must account for every host step");
    UPN_ENSURE(result.protocol->guest_steps() == guest_steps,
               "emitted protocol must cover the requested guest horizon");
  }
  result.host_steps = result.comm_steps + result.compute_steps;
  result.slowdown = per_guest_step(result.host_steps, guest_steps);
  result.inefficiency = n == 0 ? 0.0 : result.slowdown * host.num_nodes() / n;

  // ---- End-to-end verification against the direct execution. ----
  UPN_OBS_SPAN("sim.universal.validate");
  result.configs_match = kernel.configs_match();
  UPN_OBS_COUNT("sim.universal.runs", 1);
  return result;
}

}  // namespace upn
