// One guest step of Theorem 2.1's simulation, shared by every simulator
// whose guest is a Graph.
//
// The guest runs the round-based full-information model: each step every
// guest reads all its neighbors' configurations, then computes.  A
// simulator only decides how the configurations of crossing guest edges
// travel.  GuestStepKernel does the rest: the demand list (one demand per
// directed guest edge between different hosts), the configurations, a flat
// inbox with one slot per directed guest edge, the neighbor gather and
// next_config, and the check against the direct execution.
//
// A delivery backend moves one step's demand payloads through a
// communication mechanism and calls deliver(d, payload) for every record
// that arrived.  For a crossing edge the kernel reads only what was
// delivered, so configs_match checks the mechanism end to end.
// docs/MODEL.md lists what each backend guarantees.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/compute/machine.hpp"
#include "src/pebble/protocol.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/offline_butterfly.hpp"
#include "src/routing/online/online_router.hpp"
#include "src/routing/path_schedule.hpp"
#include "src/routing/router.hpp"
#include "src/sorting/comparator_network.hpp"
#include "src/topology/graph.hpp"

namespace upn {

/// One crossing directed guest edge: carries guest `sender`'s configuration
/// from host src = f(sender) to host dst = f(receiver), into `slot`, the
/// receiver's inbox slot for the sender.
struct GuestDemand {
  NodeId sender = 0;
  NodeId receiver = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t slot = 0;
};

/// The demands of one guest step in guest_step_relation's order (ascending
/// sender, then ascending receiver), so demand d is packet d of every
/// schedule built from that relation.
[[nodiscard]] std::vector<GuestDemand> guest_step_demands(const Graph& guest,
                                                          const std::vector<NodeId>& embedding);

/// One step's demands and their payloads: payloads[d] travels for demands[d].
struct StepPayloads {
  std::span<const GuestDemand> demands;
  std::span<const Config> payloads;
};

/// T'/T: host steps per guest step (0 for T = 0).
[[nodiscard]] inline double per_guest_step(std::uint64_t host_steps, std::uint32_t guest_steps) {
  return guest_steps == 0 ? 0.0 : static_cast<double>(host_steps) / guest_steps;
}

/// Receives one delivered record: its demand index and the arrived payload.
using DeliverFn = std::function<void(std::uint32_t, Config)>;

class GuestStepKernel {
 public:
  /// Guest and embedding must outlive the kernel.  Inbox slots start out
  /// holding the senders' initial configurations.
  GuestStepKernel(const Graph& guest, const std::vector<NodeId>& embedding, std::uint64_t seed);

  /// Rebuilds the demand list after the embedding changed.
  void rebuild_demands();

  /// Every demand with this step's payload (its sender's configuration),
  /// viewing kernel storage that rebuild_demands() replaces.
  [[nodiscard]] StepPayloads step_payloads();

  /// Stores a delivered payload in its demand's inbox slot for this step.
  void deliver(std::uint32_t demand, Config payload);

  /// Simulates one guest step: every guest gathers its neighbors'
  /// configurations (local ones directly, remote ones from the inbox) and
  /// applies next_config.  Returns how many remote slots deliver() did not
  /// refresh this step; those reads saw the slot's previous content.
  std::uint64_t compute();

  /// compute() for a lossless backend: a slot left stale throws
  /// std::logic_error naming `simulator`.
  void compute_lossless(const char* simulator);

  /// The configurations equal the direct execution of the steps computed.
  [[nodiscard]] bool configs_match() const;

 private:
  const Graph* guest_;
  const std::vector<NodeId>* embedding_;
  std::uint64_t seed_;
  std::uint32_t step_ = 1;  ///< the guest step being simulated
  std::vector<GuestDemand> demands_;
  std::vector<Config> payloads_;
  std::vector<Config> configs_, next_, gather_;
  std::vector<Config> inbox_;         ///< per directed guest edge (CSR slot)
  std::vector<std::uint32_t> fresh_;  ///< step of each slot's last delivery
};

// ---- Delivery backends ---------------------------------------------------
// Router packets carry tag = sender and tag2 = receiver.

/// Fault-free synchronous router: packet i is demand i, routed under
/// `policy` with its transfers streamed to `sink`; every packet that
/// arrives is delivered.
[[nodiscard]] RouteResult route_demands(SyncRouter& router, RoutingPolicy& policy,
                                        const TransferSink& sink, StepPayloads step,
                                        const DeliverFn& deliver);

/// Fault router: routes demands[ids[i]] as packet i under `faults` (on the
/// router's live-subgraph oracle), streams its transfers to `sink`, and
/// delivers every packet that arrived as deliver(ids[i], payload).  Lost
/// packets stay marked in the result for the caller to re-inject.
[[nodiscard]] RouteResult route_demands_with_faults(SyncRouter& router,
                                                    const FaultRouteOptions& faults,
                                                    const TransferSink& sink, StepPayloads step,
                                                    std::span<const std::uint32_t> ids,
                                                    const DeliverFn& deliver);

/// Lossy online router: packet i is demand i, routed within `max_steps`
/// host steps; only packets that survived churn are delivered.
[[nodiscard]] OnlineRouteResult route_demands_online(OnlineRouter& router,
                                                     std::uint32_t max_steps, StepPayloads step,
                                                     const DeliverFn& deliver);

/// Schedule replay: moves every payload hop by hop along `moves`
/// (packet = demand index).  A hop that does not start at its packet's
/// current position throws std::logic_error; a payload is handed over only
/// if its packet ends at the demand's destination host.  Returns
/// `num_steps`.
std::uint32_t replay_schedule(std::span<const ScheduledMove> moves, std::uint32_t num_steps,
                              StepPayloads step, const DeliverFn& deliver);

/// A path schedule's moves as one step-ordered list for replay_schedule.
[[nodiscard]] std::vector<ScheduledMove> path_schedule_moves(const PathSchedule& schedule);

/// Sorting-network delivery of `relation` (demand d is relation entry d):
/// each record lands where the comparators put it and is delivered after
/// checking that its landing node is the demand's destination host.
/// Returns the comparator steps used.
std::uint64_t sort_demands(const HhProblem& relation, const ComparatorNetwork& sorter,
                           StepPayloads step, const DeliverFn& deliver);

// ---- Protocol emission ---------------------------------------------------
/// The transfer sink that emits a route as it runs: each router step it is
/// handed becomes one protocol step, checked by one Protocol::add_step, in
/// which every transfer of packet i is a SEND of the pebble
/// (P_senders[i], pebble_time) plus the mirrored RECEIVE, unless the copy
/// was dropped in flight.  `protocol` and `senders` must outlive the
/// routing call.
[[nodiscard]] TransferSink emit_route_ops(Protocol& protocol, std::span<const NodeId> senders,
                                          std::uint32_t pebble_time);

/// The computation rounds of guest time `t`: host q generates
/// guests_of[q][round] in round `round`.  Emits one protocol step per round
/// when `protocol` is set; returns the rounds (the longest list).
std::uint32_t emit_generate_rounds(Protocol* protocol,
                                   const std::vector<std::vector<NodeId>>& guests_of,
                                   std::uint32_t t);

}  // namespace upn
