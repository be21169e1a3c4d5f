// Convergence property: once churn stops, the announcement protocol must
// stabilize -- within an explicit round bound -- into tables that are
// loop-free and COMPLETE (a route for every pair the surviving topology
// connects) with shortest-path metrics.  Swept over a seeded topology zoo
// and churn rates; the bound is the rotation-aware propagation argument
// from docs/ONLINE_ROUTING.md, not a tuned constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/fault/surgery.hpp"
#include "src/routing/online/online_router.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/hypercube.hpp"
#include "src/topology/mesh.hpp"
#include "src/topology/properties.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/rng.hpp"
#include "tests/support/fault_oracles.hpp"
#include "tests/support/table_policy.hpp"
#include "tests/support/topology_oracles.hpp"

namespace upn {
namespace {

/// Rounds within which a quiet network must stabilize, built from the
/// protocol's own timers (docs/ONLINE_ROUTING.md), not a tuned constant:
///   - corpse routes cascade-expire one staleness window per hop
///     (an entry is refreshed only while its next hop still claims the
///     route), bounded by (diameter + 2) windows;
///   - fresh shortest-path news propagates one hop per announcement-
///     rotation cycle, bounded by (rotation + 2) hellos per hop;
///   - the stability detector then needs one quiet staleness window, and
///     one more window of slack absorbs hello-phase jitter.
/// `stale_after` must be the router's stale_after() (kStaleAfter raised to
/// outlast the rotation cycle).
std::uint32_t convergence_bound(const Graph& live, std::uint32_t stale_after) {
  const std::uint32_t n = live.num_nodes();
  const std::uint32_t rotation =
      n >= 2 ? (n - 2) / (OnlineRouter::kAnnounceCap - 1) + 1 : 1;
  const std::uint32_t diam = diameter(live);
  return (diam + 2) * stale_after +
         OnlineRouter::kHelloInterval * (rotation + 2) * (diam + 2) + 2 * (stale_after + 1);
}

void expect_stabilizes(const Graph& host, double churn_rate, std::uint64_t seed) {
  const std::uint32_t horizon = 64;
  const FaultPlan plan = make_link_churn(host, churn_rate, seed, horizon);
  OnlineRouter router{host, plan};

  // Live through the churn: every scheduled event (including trailing
  // repairs) lands while the protocol keeps running.
  const std::vector<std::uint32_t> steps = epochs(plan);
  const std::uint32_t last_epoch = steps.empty() ? 0 : steps.back();
  while (router.now() <= last_epoch) (void)router.step();

  // After the last event the network is static: the protocol must quiesce
  // within the computed bound...
  const FaultPlan settled = plan.revealed_at(router.now());
  const Graph live = surviving_edges_graph(host, settled);
  const std::uint32_t bound = convergence_bound(live, router.stale_after());
  const ConvergenceReport report = router.run_until_stable(bound);
  EXPECT_TRUE(report.stable) << host.name() << " rate " << churn_rate << " bound " << bound;

  // ... into loop-free tables ...
  EXPECT_TRUE(loop_free(router, plan)) << host.name() << " rate " << churn_rate;

  // ... that are complete and shortest-path over the surviving topology.
  for (NodeId s = 0; s < live.num_nodes(); ++s) {
    const std::vector<std::uint32_t> dist = bfs_distances(live, s);
    for (NodeId d = 0; d < live.num_nodes(); ++d) {
      if (s == d) continue;
      if (dist[d] == kUnreachable) continue;  // partitioned away: no claim
      EXPECT_EQ(route_hops(router, s, d), dist[d])
          << host.name() << " rate " << churn_rate << " pair " << s << "->" << d;
    }
  }
}

TEST(OnlineConvergence, MeshZoo) {
  expect_stabilizes(make_mesh(4, 5), 0.1, 0xc0de);
  expect_stabilizes(make_mesh(4, 5), 0.3, 0xc0de);
}

TEST(OnlineConvergence, ButterflyZoo) {
  expect_stabilizes(make_butterfly(2), 0.1, 0xbee5);
  expect_stabilizes(make_butterfly(2), 0.3, 0xbee5);
}

TEST(OnlineConvergence, HypercubeZoo) {
  expect_stabilizes(make_hypercube(4), 0.1, 0xc4be);
  expect_stabilizes(make_hypercube(4), 0.3, 0xc4be);
}

TEST(OnlineConvergence, RandomRegularZoo) {
  Rng rng{0x2e6};
  const Graph host = make_random_regular(24, 4, rng);
  expect_stabilizes(host, 0.1, 0x2e6);
  expect_stabilizes(host, 0.3, 0x2e6);
}

TEST(OnlineConvergence, SurvivesPermanentDamageWithoutStabilityClaim) {
  // Permanent (non-healing) faults on top of churn: the protocol must still
  // quiesce and stay loop-free -- completeness is only owed within the
  // surviving components, which expect_stabilizes already scopes via BFS.
  const Graph host = make_mesh(4, 5);
  FaultPlan plan = make_link_churn(host, 0.2, 0x7ea1, 64);
  plan.add_node_fault(NodeFault{7, 20});
  OnlineRouter router{host, plan};
  const std::uint32_t last = epochs(plan).back();
  while (router.now() <= last) (void)router.step();
  const ConvergenceReport report = router.run_until_stable(1u << 14);
  EXPECT_TRUE(report.stable);
  EXPECT_TRUE(loop_free(router, plan));
}

}  // namespace
}  // namespace upn
