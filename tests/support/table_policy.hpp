// Bridge from learned route tables to the offline router's policy slot, and
// the next-hop chain walks the online tests check those tables with.
//
// OnlineTablePolicy exposes an OnlineRouter's converged tables through the
// RoutingPolicy interface, so the classic SyncRouter can execute traffic
// over routes that were LEARNED from announcements instead of computed from
// the global topology.  This is the seam the zero-churn differential test
// exercises: once tables converge on a static graph they encode shortest
// paths, and SyncRouter driven by this policy must produce delivery
// verdicts byte-identical to the oracle-driven offline run.
#pragma once

#include <cstdint>
#include <string>

#include "src/fault/fault_plan.hpp"
#include "src/routing/online/online_router.hpp"
#include "src/routing/router.hpp"

namespace upn {

/// Hops from `src` to `dst` following the router's current tables;
/// kNoRouteHops when some node on the way has no entry or the chain exceeds
/// n hops.
inline constexpr std::uint32_t kNoRouteHops = 0xffffffffu;
[[nodiscard]] std::uint32_t route_hops(const OnlineRouter& router, NodeId src, NodeId dst);

/// True iff no LIVE destination's next-hop chain cycles (chains may be
/// incomplete mid-convergence; incompleteness is not a loop).  `plan` is the
/// plan the router runs; a destination dead at router.now() is exempt: the
/// origin can never issue the fresher sequence that resolves a transient
/// loop, so those entries may freeze arbitrarily -- the data plane bounds
/// the damage instead (dead-endpoint check, TTL, retry budget).
[[nodiscard]] bool loop_free(const OnlineRouter& router, const FaultPlan& plan);

/// Consults a router's CURRENT tables; it does not advance the protocol.
/// The router must outlive the policy and must hold a route for every
/// (location, destination) pair the traffic reaches -- converge first
/// (OnlineRouter::run_until_stable), then route.
class OnlineTablePolicy final : public RoutingPolicy {
 public:
  explicit OnlineTablePolicy(const OnlineRouter& router) : router_(&router) {}

  [[nodiscard]] NodeId next_hop(const Graph& graph, NodeId at, const Packet& packet) override;
  [[nodiscard]] std::string name() const override { return "online-tables"; }

 private:
  const OnlineRouter* router_;
};

}  // namespace upn
