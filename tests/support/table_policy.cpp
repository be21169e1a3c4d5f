#include "tests/support/table_policy.hpp"

#include "src/util/contracts.hpp"

namespace upn {

NodeId OnlineTablePolicy::next_hop(const Graph& graph, NodeId at, const Packet& packet) {
  const NodeId target = packet.current_target();
  const NodeId next = router_->table_next_hop(at, target);
  UPN_REQUIRE(next != kNoRoute,
              "OnlineTablePolicy: no learned route; converge the router before routing");
  UPN_ENSURE(graph.has_edge(at, next), "learned next hops follow host links");
  return next;
}

}  // namespace upn
