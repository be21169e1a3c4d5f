// The pre-rewrite synchronous store-and-forward router, preserved verbatim
// as the differential-testing oracle for the data-oriented fast engine
// (src/routing/router.cpp, docs/ROUTER_ENGINE.md).
//
// This is the node-based engine the repo shipped before the CSR/SoA rewrite:
// per-node vectors of std::deque port queues, Graph::neighbors span queries
// every step, and switch-based placement.  It is deliberately NOT part of
// the src/ library -- it lives in tests/ support code so the hot-path
// analysis ratchet never sees its deques -- and it must never be "optimized":
// its entire value is that it computes the router semantics the slow,
// obviously-correct way.  tests/router_differential_test.cpp and the
// differential fuzzer assert byte-identical RouteResults (and the same
// streamed transfers, step by step) from both engines on identical inputs,
// for both port models, fault-free and under FaultPlans.  This engine still
// logs every hop of the call and streams the log to the sink once the call
// has routed.
//
// The API mirrors SyncRouter exactly; policies, packets, fault options, and
// results are the shared types from src/routing/router.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/routing/router.hpp"
#include "src/topology/graph.hpp"

namespace upn::testing {

/// Drop-in reference implementation of SyncRouter's routing semantics.
class ReferenceRouter {
 public:
  ReferenceRouter(const Graph& graph, PortModel port_model);

  /// Reference semantics of SyncRouter::route.
  [[nodiscard]] RouteResult route(std::vector<Packet> packets, RoutingPolicy& policy,
                                  const TransferSink& sink = {},
                                  std::uint32_t max_steps = 1u << 22);

  /// Reference semantics of SyncRouter::route_with_faults.
  [[nodiscard]] RouteResult route_with_faults(std::vector<Packet> packets,
                                              const FaultRouteOptions& faults,
                                              RoutingPolicy* policy = nullptr,
                                              const TransferSink& sink = {},
                                              std::uint32_t max_steps = 1u << 22);

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] PortModel port_model() const noexcept { return port_model_; }

 private:
  [[nodiscard]] RouteResult route_impl(std::vector<Packet> packets, RoutingPolicy* policy,
                                       const FaultRouteOptions* faults, const TransferSink& sink,
                                       std::uint32_t max_steps);

  const Graph* graph_;
  PortModel port_model_;
};

class HopRecorder;

/// Canonical byte dump of a RouteResult: every field of every packet (but
/// not `replayed`) and, when `streamed` is given, every router step it
/// recorded with its transfers, one token stream.  Two results are
/// bit-identical iff their dumps compare equal, so differential tests diff
/// strings and failures show the first diverging field.
[[nodiscard]] std::string dump_route_result(const RouteResult& result,
                                            const HopRecorder* streamed = nullptr);

}  // namespace upn::testing
