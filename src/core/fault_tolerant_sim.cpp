#include "src/core/fault_tolerant_sim.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "src/core/embedding.hpp"
#include "src/core/guest_step.hpp"
#include "src/obs/obs.hpp"

namespace upn {

namespace {

/// Extra routing rounds a phase may spend re-injecting lost packets.
constexpr std::uint32_t kReinjectAttempts = 3;

}  // namespace

FaultTolerantSimulator::FaultTolerantSimulator(const Graph& guest, const Graph& host,
                                               const FaultPlan& plan,
                                               std::vector<NodeId> embedding)
    : guest_(&guest), host_(&host), plan_(&plan), embedding_(std::move(embedding)) {
  if (embedding_.size() != guest.num_nodes()) {
    throw std::invalid_argument{"FaultTolerantSimulator: embedding size != guest size"};
  }
  for (const NodeId q : embedding_) {
    if (q >= host.num_nodes()) {
      throw std::invalid_argument{"FaultTolerantSimulator: embedding target out of range"};
    }
  }
}

FaultSimResult FaultTolerantSimulator::run(std::uint32_t guest_steps,
                                           const FaultSimOptions& options) {
  UPN_OBS_SPAN("sim.fault.run");
  const Graph& guest = *guest_;
  const Graph& host = *host_;
  const std::uint32_t n = guest.num_nodes();
  const std::uint32_t m = host.num_nodes();

  SyncRouter router{host, PortModel::kSinglePort};

  FaultSimResult result;
  result.guest_steps = guest_steps;
  if (options.emit_protocol) result.protocol.emplace(n, m, guest_steps);

  // Host step counter H: the fault plan is evaluated at H, every routing
  // phase is offset by H, and H is what slowdown is measured from.
  std::uint32_t H = 0;

  // The plan as revealed so far (permanent faults quantized to guest-step
  // boundaries; drop windows verbatim).  Rebuilt when new faults activate.
  FaultPlan revealed = plan_->revealed_at(0);
  std::vector<char> host_dead(m, 0);

  auto guests_of = invert_embedding(embedding_, m);
  result.load = embedding_load(embedding_, m);

  FaultRouteOptions route_opts{.plan = &revealed};

  // Routes `demands` at the current host step, re-injecting lost packets a
  // bounded number of times.  Returns false when packets remain lost (the
  // surviving host cannot deliver them).  On success every demand has been
  // delivered once.
  auto route_phase = [&](StepPayloads step, std::uint32_t pebble_time,
                         const DeliverFn& deliver) -> bool {
    UPN_OBS_SPAN("sim.fault.route");
    std::vector<std::uint32_t> ids(step.demands.size());
    std::iota(ids.begin(), ids.end(), 0u);
    std::vector<NodeId> senders;  // guest whose pebble packet i of an attempt carries
    for (std::uint32_t attempt = 0; !ids.empty(); ++attempt) {
      if (attempt > 0) {
        UPN_OBS_COUNT("sim.fault.reinjections", ids.size());
        if (attempt > kReinjectAttempts) return false;
      }
      result.packets_routed += ids.size();
      UPN_OBS_COUNT("sim.fault.packets_routed", ids.size());
      route_opts.step_offset = H;
      TransferSink emit;
      if (options.emit_protocol) {
        senders.resize(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) senders[i] = step.demands[ids[i]].sender;
        emit = emit_route_ops(*result.protocol, senders, pebble_time);
      }
      const RouteResult routed =
          route_demands_with_faults(router, route_opts, emit, step, ids, deliver);
      H += routed.steps;
      result.comm_steps += routed.steps;
      result.retransmissions += routed.retransmissions;
      result.reroutes += routed.reroutes;
      std::size_t kept = 0;  // the lost packets, re-injected next attempt
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (routed.packets[i].lost != 0) ids[kept++] = ids[i];
      }
      ids.resize(kept);
    }
    return true;
  };

  // The computation phase of guest time `t` for the given per-host guest
  // lists; every host generates its pebbles sequentially.
  Protocol* protocol = result.protocol ? &*result.protocol : nullptr;
  auto generate_rounds = [&](const std::vector<std::vector<NodeId>>& lists,
                             std::uint32_t t) -> std::uint32_t {
    const std::uint32_t rounds = emit_generate_rounds(protocol, lists, t);
    H += rounds;
    result.compute_steps += rounds;
    return rounds;
  };

  // Replays guest times 1..upto for the re-embedded guests in `lost`: their
  // new hosts receive the persisted predecessor pebbles from the current
  // holders and regenerate the lost history level by level.
  auto replay = [&](const std::vector<NodeId>& lost, std::uint32_t upto) -> bool {
    UPN_OBS_SPAN("sim.fault.replay");
    UPN_OBS_COUNT("sim.fault.replays", 1);
    UPN_OBS_HIST("sim.fault.replay_depth", upto);
    std::vector<std::vector<NodeId>> lists(m);
    for (const NodeId u : lost) lists[embedding_[u]].push_back(u);
    // Pebble copies only: the history is regenerated, not read.
    std::vector<GuestDemand> copies;
    std::unordered_set<std::uint64_t> seen;  // (guest j) -> (dest host)
    for (const NodeId u : lost) {
      for (const NodeId j : guest.neighbors(u)) {
        const NodeId holder = embedding_[j];
        const NodeId dest = embedding_[u];
        if (holder == dest) continue;
        const std::uint64_t key = (static_cast<std::uint64_t>(j) << 32) | dest;
        if (seen.insert(key).second) copies.push_back(GuestDemand{j, u, holder, dest, 0});
      }
    }
    const std::vector<Config> no_payloads(copies.size());
    const DeliverFn discard = [](std::uint32_t, Config) {};
    for (std::uint32_t tau = 1; tau <= upto; ++tau) {
      if (tau >= 2) {  // tau == 1 needs only initial pebbles, held by all
        const std::uint32_t before = result.comm_steps;
        if (!route_phase({copies, no_payloads}, tau - 1, discard)) return false;
        result.replay_steps += result.comm_steps - before;
      }
      result.replay_steps += generate_rounds(lists, tau);
    }
    return true;
  };

  GuestStepKernel kernel{guest, embedding_, options.seed};
  const DeliverFn deliver = std::bind_front(&GuestStepKernel::deliver, &kernel);

  auto finish = [&](bool completed) -> FaultSimResult {
    UPN_OBS_SPAN("sim.fault.validate");
    UPN_OBS_COUNT("sim.fault.replay_steps", result.replay_steps);
    UPN_OBS_COUNT("sim.fault.fault_epochs", result.fault_epochs);
    UPN_OBS_COUNT("sim.fault.reembedded_guests", result.reembedded_guests);
    result.host_steps = result.comm_steps + result.compute_steps;
    result.slowdown = per_guest_step(result.host_steps, guest_steps);
    result.inefficiency = n == 0 ? 0.0 : result.slowdown * m / n;
    result.completed = completed;
    result.configs_match = completed && kernel.configs_match();
    return result;
  };

  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    UPN_OBS_STEP(t);
    // ---- Fault detection at the guest-step boundary. ----
    bool new_faults = false;
    for (NodeId q = 0; q < m; ++q) {
      if (host_dead[q] == 0 && !plan_->node_alive(q, H)) {
        host_dead[q] = 1;
        new_faults = true;
      }
    }
    for (const LinkFault& f : plan_->link_faults()) {
      if (f.step <= H && revealed.link_alive(f.u, f.v, 0)) new_faults = true;
    }
    if (new_faults) {
      ++result.fault_epochs;
      revealed = plan_->revealed_at(H);
      // Re-embed guests whose host died onto the least-loaded survivors.
      std::vector<NodeId> lost;
      for (NodeId u = 0; u < n; ++u) {
        if (host_dead[embedding_[u]] != 0) lost.push_back(u);
      }
      if (!lost.empty()) {
        constexpr std::uint32_t kDead = 0xffffffffu;  // never the least loaded
        std::vector<std::uint32_t> load(m, 0);
        for (NodeId q = 0; q < m; ++q) load[q] = host_dead[q] != 0 ? kDead : 0;
        for (NodeId u = 0; u < n; ++u) {
          if (host_dead[embedding_[u]] == 0) ++load[embedding_[u]];
        }
        if (*std::min_element(load.begin(), load.end()) == kDead) return finish(false);
        for (const NodeId u : lost) {
          const auto best = std::min_element(load.begin(), load.end()) - load.begin();
          embedding_[u] = static_cast<NodeId>(best);
          ++load[static_cast<std::size_t>(best)];
        }
        guests_of = invert_embedding(embedding_, m);
        result.load = std::max(result.load, embedding_load(embedding_, m));
        result.reembedded_guests += static_cast<std::uint32_t>(lost.size());
        kernel.rebuild_demands();
        if (!replay(lost, t - 1)) return finish(false);
      }
    }

    // ---- Phase 1: communication (the h-h routing of Theorem 2.1). ----
    if (!route_phase(kernel.step_payloads(), t - 1, deliver)) {
      return finish(false);
    }

    // ---- Phase 2: computation (sequential per host, parallel across). ----
    kernel.compute_lossless("FaultTolerantSimulator");
    generate_rounds(guests_of, t);
  }

  return finish(true);
}

}  // namespace upn
