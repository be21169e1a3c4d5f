#include "tests/support/table_policy.hpp"

#include "src/util/contracts.hpp"

namespace upn {

namespace {

/// Table-driven next hop at `at` toward `dst` (kNoRoute when unknown).
NodeId table_next_hop(const OnlineRouter& router, NodeId at, NodeId dst) {
  const std::uint32_t n = router.graph().num_nodes();
  UPN_REQUIRE(at < n && dst < n, "table_next_hop: endpoints must be host nodes");
  return at == dst ? at : router.table(at).next_hop(dst);
}

}  // namespace

std::uint32_t route_hops(const OnlineRouter& router, NodeId src, NodeId dst) {
  const std::uint32_t n = router.graph().num_nodes();
  UPN_REQUIRE(src < n && dst < n, "route_hops: endpoints must be host nodes");
  NodeId at = src;
  std::uint32_t hops = 0;
  while (at != dst) {
    const NodeId next = router.table(at).next_hop(dst);
    if (next == kNoRoute || hops >= n) return kNoRouteHops;
    at = next;
    ++hops;
  }
  return hops;
}

bool loop_free(const OnlineRouter& router, const FaultPlan& plan) {
  const std::uint32_t n = router.graph().num_nodes();
  for (NodeId dst = 0; dst < n; ++dst) {
    if (!plan.node_alive(dst, router.now())) continue;
    for (NodeId src = 0; src < n; ++src) {
      if (src == dst || router.table(src).find(dst) == nullptr) continue;
      // Walk the next-hop chain; > n hops without arriving or running off
      // the table means some cycle repeated a node.
      NodeId at = src;
      std::uint32_t hops = 0;
      while (at != dst && hops <= n) {
        const NodeId next = router.table(at).next_hop(dst);
        if (next == kNoRoute) break;  // incomplete, not a loop
        at = next;
        ++hops;
      }
      if (at != dst && hops > n) return false;
    }
  }
  return true;
}

NodeId OnlineTablePolicy::next_hop(const Graph& graph, NodeId at, const Packet& packet) {
  const NodeId target = packet.current_target();
  const NodeId next = table_next_hop(*router_, at, target);
  UPN_REQUIRE(next != kNoRoute,
              "OnlineTablePolicy: no learned route; converge the router before routing");
  UPN_ENSURE(graph.has_edge(at, next), "learned next hops follow host links");
  return next;
}

}  // namespace upn
