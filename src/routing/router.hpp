// Synchronous store-and-forward packet router.
//
// The execution substrate for all routing measurements and for the universal
// simulator.  Two port models:
//
//  * MultiPort  -- every directed link carries one packet per step (the
//                  classic store-and-forward model; used to measure
//                  route_M(h) in the ROUTE experiment).
//  * SinglePort -- each processor performs at most ONE operation per step,
//                  so the transfers of a step form a matching between
//                  senders and receivers.  This matches the pebble-game
//                  model of Section 3.1 exactly ("every processor can
//                  perform one of the following operations": send a copy,
//                  or receive, or generate) and is what the universal
//                  simulator uses when it emits machine-checkable protocols.
//
// The implementation behind this API is the data-oriented fast-path engine
// (see docs/ROUTER_ENGINE.md): a CSR adjacency view cached per router,
// structure-of-arrays packet state, and flat intrusive per-port FIFO queues.
// It is proven bit-identical to the pre-rewrite node-based engine, which is
// preserved as tests/support/reference_router.{hpp,cpp} and exercised against
// this one by tests/router_differential_test.cpp and the differential fuzzer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <span>
#include <utility>
#include <vector>

#include "src/topology/graph.hpp"

namespace upn {

struct Packet {
  std::uint32_t id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  NodeId via = 0;            ///< Valiant intermediate; equals dst when unused
  std::uint8_t phase = 1;    ///< 0: heading to via, 1: heading to dst
  std::uint8_t lost = 0;     ///< 1: undeliverable under the active fault plan
  std::uint16_t retries = 0; ///< retransmissions + detours consumed (faults)
  std::uint64_t payload = 0; ///< opaque data (a guest configuration)
  std::uint32_t tag = 0;     ///< opaque tag (sending guest node id)
  std::uint32_t tag2 = 0;    ///< opaque tag (receiving guest node id)
  std::int64_t delivered_at = -1;

  [[nodiscard]] NodeId current_target() const noexcept { return phase == 0 ? via : dst; }
};

/// One packet hop, as a transfer sink receives it.
struct Transfer {
  std::uint32_t step = 0;  ///< 0-based router step at which the hop happened
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t packet = 0;   ///< index into RouteResult::packets
  std::uint8_t dropped = 0;   ///< 1: the link was used but the packet was lost
                              ///< in flight (emit a SEND with no RECEIVE)
};

/// Receives a routed call's hops as the router runs them: called once per
/// router step, in step order, with that step's transfers in kernel order
/// (an empty span for a step that moved nothing).  The span is valid only
/// during the call.  The router keeps no hop log.
using TransferSink = std::function<void(std::span<const Transfer>)>;

struct RouteResult {
  std::uint32_t steps = 0;          ///< steps until the last delivery
  std::uint64_t total_transfers = 0;
  std::uint32_t max_queue = 0;      ///< peak per-node buffered packets
  std::uint32_t packets_lost = 0;   ///< packets that could not be delivered
  std::uint64_t retransmissions = 0;///< resends after transient drops
  std::uint64_t reroutes = 0;       ///< detours around permanently dead links
  std::vector<Packet> packets;      ///< with delivered_at filled in
  /// The route memo replayed the router's last memoized route (schedule
  /// for schedule) instead of running the steps; the sink got nothing.
  bool replayed = false;
};

/// Chooses the outgoing neighbor for a packet.  Policies may keep per-run
/// state; prepare() is called once with all packets before routing begins.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;  // upn-analyze-waive(hotpath-virtual: frozen public API; dispatch is per-placement, outside the per-step scan kernels)
  virtual void prepare(const Graph& graph, std::vector<Packet>& packets);  // upn-analyze-waive(hotpath-virtual: called once per route call, not per step)
  /// Next neighbor of `at` for this packet; must be adjacent to `at`.
  [[nodiscard]] virtual NodeId next_hop(const Graph& graph, NodeId at, const Packet& packet) = 0;  // upn-analyze-waive(hotpath-virtual: frozen public API; one call per packet placement, not per slot scan)
  [[nodiscard]] virtual std::string name() const = 0;  // upn-analyze-waive(hotpath-virtual: cold diagnostics path)
};

enum class PortModel : std::uint8_t {
  kMultiPort,   ///< one packet per directed link per step
  kSinglePort,  ///< one operation per node per step (pebble-game compatible)
};

class FaultPlan;

/// A dropped packet's resend delay in host steps is kBackoffBase << retries,
/// with retries capped at 6.
inline constexpr std::uint32_t kBackoffBase = 1;

/// Fault-injection parameters for a routing run.  The plan is evaluated at
/// global host step `step_offset + local_step`, so a long simulation can
/// thread one plan through many routing phases.
struct FaultRouteOptions {
  const FaultPlan* plan = nullptr;  ///< nullptr: fault-free routing
  std::uint32_t step_offset = 0;    ///< global host step of local step 0
  std::uint32_t max_retries = 16;   ///< per packet, before declaring it lost
};

class SyncRouter {
 public:
  SyncRouter(const Graph& graph, PortModel port_model);

  /// Routes all packets to their destinations, streaming each router step's
  /// transfers to `sink` when it is set (not on a memo replay).  Throws on
  /// livelock (no delivery progress within the step limit).
  [[nodiscard]] RouteResult route(std::vector<Packet> packets, RoutingPolicy& policy,  // upn-analyze-waive(hotpath-by-value-param: sink parameter, moved into the result in the .cpp)
                                  const TransferSink& sink = {},
                                  std::uint32_t max_steps = 1u << 22);

  /// Fault-aware routing: consults `faults.plan` every step.  Packets on
  /// links that die are re-queued around the failure (`reroutes`); packets
  /// dropped in a transient window are retransmitted by the sender with
  /// exponential backoff (`retransmissions`) until `max_retries` is
  /// exhausted; packets whose destination dies (or becomes unreachable in
  /// the surviving subgraph) are marked lost instead of throwing.  Every
  /// hop comes from an internal greedy shortest-path oracle computed on the
  /// live subgraph.  Throws std::invalid_argument when `faults.plan` is null.
  [[nodiscard]] RouteResult route_with_faults(std::vector<Packet> packets,  // upn-analyze-waive(hotpath-by-value-param: sink parameter, moved into the result in the .cpp)
                                              const FaultRouteOptions& faults,
                                              const TransferSink& sink = {},
                                              std::uint32_t max_steps = 1u << 22);

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] PortModel port_model() const noexcept { return port_model_; }

 private:
  /// The last fault-free GreedyPolicy route on this router, replayed when a
  /// later call brings the same endpoints (docs/ROUTER_ENGINE.md, "Route
  /// memo").  Greedy hops depend only on the graph, the current node, the
  /// target and the packet index, so equal endpoints in equal order give an
  /// identical schedule.
  struct RouteMemo {
    const RoutingPolicy* policy = nullptr;  ///< nullptr: nothing stored
    std::vector<std::pair<NodeId, NodeId>> endpoints;  ///< (src, dst) per packet
    std::vector<std::uint32_t> delivered_at;           ///< per packet
    std::vector<std::uint32_t> step_max_queue;         ///< per router step
    std::uint64_t total_transfers = 0;
    std::uint32_t max_queue = 0;
  };

  [[nodiscard]] bool memo_matches(const std::vector<Packet>& packets, const RoutingPolicy* policy,
                                  std::uint32_t max_steps) const;
  [[nodiscard]] RouteResult replay_memo(std::vector<Packet> packets) const;  // upn-analyze-waive(hotpath-by-value-param: sink parameter, moved into the result in the .cpp)
  void remember_route(const RouteResult& result, const RoutingPolicy* policy,
                      std::vector<std::uint32_t> step_log);  // upn-analyze-waive(hotpath-by-value-param: sink parameter, moved into the memo in the .cpp)

  [[nodiscard]] RouteResult route_impl(std::vector<Packet> packets, RoutingPolicy* policy,  // upn-analyze-waive(hotpath-by-value-param: sink parameter, moved into the result in the .cpp)
                                       const FaultRouteOptions* faults, const TransferSink& sink,
                                       std::uint32_t max_steps);
  [[nodiscard]] RouteResult run_steps(std::vector<Packet> packets, RoutingPolicy* policy,  // upn-analyze-waive(hotpath-by-value-param: sink parameter, moved into the result in the .cpp)
                                      const FaultRouteOptions* faults, const TransferSink& sink,
                                      std::uint32_t max_steps,
                                      std::vector<std::uint32_t>* step_log);

  const Graph* graph_;
  PortModel port_model_;
  // CSR view of *graph_, cached once at construction for the hot kernels.
  const std::uint32_t* csr_offsets_ = nullptr;
  const NodeId* csr_adjacency_ = nullptr;
  std::uint32_t csr_slots_ = 0;  ///< 2 * num_edges(): number of directed-link slots
  RouteMemo memo_;
};

/// route_M(h) measurement: routes `instances` random h-relations and returns
/// the worst completion time observed.  Requires h >= 1 and instances >= 1.
struct RouteTimeEstimate {
  std::uint32_t worst_steps = 0;
  double mean_steps = 0.0;
};

class Rng;
[[nodiscard]] RouteTimeEstimate measure_route_time(const Graph& host, std::uint32_t h,
                                                   RoutingPolicy& policy, PortModel port_model,
                                                   std::uint32_t instances, Rng& rng);

}  // namespace upn
