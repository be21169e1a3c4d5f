// Unit coverage for the online routing regime: route-table semantics,
// protocol convergence on static hosts, graceful degradation under faults
// and repairs, and the table-policy bridge into the offline router.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/online_adaptive_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/routing/online/online_router.hpp"
#include "src/routing/policies.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/mesh.hpp"
#include "src/topology/properties.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/rng.hpp"
#include "tests/support/routing_oracles.hpp"
#include "tests/support/table_policy.hpp"

namespace upn {
namespace {

std::vector<Packet> all_pairs_packets(const Graph& g) {
  std::vector<Packet> packets;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId d = 0; d < g.num_nodes(); ++d) {
      if (s == d) continue;
      Packet p;
      p.src = s;
      p.dst = d;
      p.via = d;
      packets.push_back(p);
    }
  }
  return packets;
}

TEST(RouteTable, FreshnessFirstAcceptance) {
  RouteTable table{0};
  // New destination: inserted regardless of sequence.
  EXPECT_EQ(table.apply(RouteAnnouncement{5, 20, 1}, 1, 10), TableUpdate::kRevised);
  ASSERT_NE(table.find(5), nullptr);
  EXPECT_EQ(table.find(5)->metric, 2u);  // one hop through via
  EXPECT_EQ(table.next_hop(5), 1u);

  // Better metric but news too stale to believe: the 1-hop announcement may
  // lag the incumbent by at most seq_lag_per_hop * 1 = 8 hellos; 11 + 8 < 20.
  EXPECT_EQ(table.apply(RouteAnnouncement{5, 11, 0}, 2, 11), TableUpdate::kIgnored);
  EXPECT_EQ(table.next_hop(5), 1u);

  // Equal sequence, worse-or-equal metric: ignored.
  EXPECT_EQ(table.apply(RouteAnnouncement{5, 20, 1}, 2, 11), TableUpdate::kIgnored);

  // Strictly better metric within the staleness allowance: adopted.
  EXPECT_EQ(table.apply(RouteAnnouncement{5, 12, 0}, 2, 12), TableUpdate::kRevised);
  EXPECT_EQ(table.next_hop(5), 2u);
  EXPECT_EQ(table.find(5)->metric, 1u);

  // Fresher sequence over the SAME route: a heartbeat, not a revision.
  EXPECT_EQ(table.apply(RouteAnnouncement{5, 21, 0}, 2, 13), TableUpdate::kRefreshed);
  EXPECT_EQ(table.find(5)->seq, 21u);
  EXPECT_EQ(table.find(5)->last_heard, 13u);

  // A different neighbor with the SAME metric cannot steal the route just
  // by being marginally fresher -- that's the anti-flapping gate.
  EXPECT_EQ(table.apply(RouteAnnouncement{5, 22, 0}, 3, 14), TableUpdate::kIgnored);
  EXPECT_EQ(table.next_hop(5), 2u);

  // ... but a sequence gap beyond seq_lag_per_hop * (metric + 1) means the
  // incumbent path stopped carrying heartbeats: presumed broken, displaced.
  // The incumbent holds (metric 1, seq 21), so the threshold is 4 * 2 = 8:
  // a gap of exactly 8 still tolerated, 9 convicts.
  EXPECT_EQ(table.apply(RouteAnnouncement{5, 29, 0}, 3, 14, /*seq_lag_per_hop=*/4),
            TableUpdate::kIgnored);
  EXPECT_EQ(table.apply(RouteAnnouncement{5, 30, 0}, 3, 14, /*seq_lag_per_hop=*/4),
            TableUpdate::kRevised);
  EXPECT_EQ(table.next_hop(5), 3u);

  // Announcements about self never enter the table.
  EXPECT_EQ(table.apply(RouteAnnouncement{0, 99, 0}, 1, 15), TableUpdate::kIgnored);
  EXPECT_EQ(table.find(0), nullptr);
}

TEST(RouteTable, ExpiryIsPerOriginAndSilenceDriven) {
  RouteTable table{0};
  (void)table.apply(RouteAnnouncement{5, 1, 0}, 1, 10);
  (void)table.apply(RouteAnnouncement{6, 1, 0}, 2, 10);
  EXPECT_EQ(table.expire(20, 10), 0u);  // exactly at the window edge: kept
  EXPECT_EQ(table.size(), 2u);

  // Only a re-announcement of THAT origin from the incumbent refreshes an
  // entry -- a neighbor cannot vouch for routes it no longer claims.
  EXPECT_EQ(table.apply(RouteAnnouncement{5, 2, 0}, 1, 25), TableUpdate::kRefreshed);
  EXPECT_EQ(table.expire(31, 10), 1u);  // origin 6 went silent
  EXPECT_NE(table.find(5), nullptr);
  EXPECT_EQ(table.find(6), nullptr);
}

TEST(RouteTable, MetricCeilingDropsInflatedRoutes) {
  RouteTable table{0};
  // Over the ceiling: not inserted and the staleness timer untouched, so
  // count-to-infinity corpses drain instead of resurrecting each other.
  EXPECT_EQ(table.apply(RouteAnnouncement{9, 1, 5}, 1, 10, 8, /*max_metric=*/5),
            TableUpdate::kIgnored);
  EXPECT_EQ(table.find(9), nullptr);
  // At the ceiling exactly: an honest longest route, accepted.
  EXPECT_EQ(table.apply(RouteAnnouncement{9, 1, 4}, 1, 10, 8, /*max_metric=*/5),
            TableUpdate::kRevised);
  ASSERT_NE(table.find(9), nullptr);
  EXPECT_EQ(table.find(9)->metric, 5u);
}

TEST(RouteTable, ComposeRotatesTheCappedWindow) {
  RouteTable table{0};
  for (NodeId d = 1; d <= 6; ++d) {
    (void)table.apply(RouteAnnouncement{d, 1, d - 1}, 1, 5);
  }
  // cap = 3: self + a rotating 2-route window over 6 entries.
  std::vector<char> announced(7, 0);
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    const std::vector<RouteAnnouncement> hello = table.compose(seq, 3);
    ASSERT_EQ(hello.size(), 3u);
    EXPECT_EQ(hello[0], (RouteAnnouncement{0, seq, 0}));  // self first
    for (std::size_t i = 1; i < hello.size(); ++i) announced[hello[i].origin] = 1;
  }
  // Three hellos x window 2 = 6 slots cover all 6 entries exactly once.
  for (NodeId d = 1; d <= 6; ++d) EXPECT_EQ(announced[d], 1) << d;
  // cap = 1 announces self only.
  EXPECT_EQ(table.compose(9, 1).size(), 1u);
}

TEST(OnlineRouter, ConvergesToShortestPathsOnStaticHost) {
  const Graph host = make_mesh(4, 4);
  const FaultPlan plan;  // no churn
  OnlineRouter router{host, plan};
  const ConvergenceReport report = router.run_until_stable(4096);
  EXPECT_TRUE(report.stable);
  EXPECT_TRUE(loop_free(router, plan));
  const std::vector<std::uint32_t> dist = bfs_distances(host, 0);
  for (NodeId d = 1; d < host.num_nodes(); ++d) {
    EXPECT_EQ(route_hops(router, 0, d), dist[d]) << "dest " << d;
  }
}

TEST(OnlineRouter, DeliversAllPairsOnStaticHost) {
  const Graph host = make_mesh(3, 3);
  const FaultPlan plan;
  OnlineRouter router{host, plan};
  (void)router.run_until_stable(4096);
  const OnlineRouteResult result = router.route(all_pairs_packets(host));
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.delivered, result.packets.size());
  EXPECT_GT(result.transfers, 0u);
  for (const Packet& p : result.packets) EXPECT_GE(p.delivered_at, 0);
}

TEST(OnlineRouter, ReroutesAroundALinkDeathDetectedBySilence) {
  // A ring: killing one link leaves exactly one (longer) route.
  GraphBuilder builder{6, "ring6"};
  for (NodeId v = 0; v < 6; ++v) builder.add_edge(v, (v + 1) % 6);
  const Graph host = std::move(builder).build();

  FaultPlan plan;
  plan.add_link_fault(LinkFault{0, 1, 40});
  OnlineRouter router{host, plan};
  (void)router.run_until_stable(30);  // converge BEFORE the fault lands
  EXPECT_EQ(route_hops(router, 0, 1), 1u);

  // Step past the fault and let silence expire the dead-link routes.
  (void)router.run_until_stable(4096);
  EXPECT_TRUE(loop_free(router, plan));
  EXPECT_EQ(route_hops(router, 0, 1), 5u);  // the long way around

  Packet p;
  p.src = 0;
  p.dst = 1;
  p.via = 1;
  const OnlineRouteResult result = router.route({p});
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.delivered, 1u);
}

TEST(OnlineRouter, RelearnsRoutesAfterRepair) {
  GraphBuilder builder{6, "ring6"};
  for (NodeId v = 0; v < 6; ++v) builder.add_edge(v, (v + 1) % 6);
  const Graph host = std::move(builder).build();

  FaultPlan plan;
  plan.add_link_fault(LinkFault{0, 1, 10});
  plan.add_link_repair(LinkRepair{0, 1, 60});
  OnlineRouter router{host, plan};
  while (router.now() <= 60) (void)router.step();  // live through kill AND heal
  (void)router.run_until_stable(4096);
  EXPECT_TRUE(loop_free(router, plan));
  EXPECT_EQ(route_hops(router, 0, 1), 1u);  // the healed link is back in use
}

TEST(OnlineRouter, DeadDestinationIsLostNotFatal) {
  const Graph host = make_mesh(3, 3);
  FaultPlan plan;
  plan.add_node_fault(NodeFault{8, 0});
  OnlineRouter router{host, plan};
  (void)router.run_until_stable(4096);

  Packet doomed;
  doomed.src = 0;
  doomed.dst = 8;
  doomed.via = 8;
  Packet fine;
  fine.src = 0;
  fine.dst = 4;
  fine.via = 4;
  const OnlineRouteResult result = router.route({doomed, fine});
  EXPECT_EQ(result.lost, 1u);
  EXPECT_EQ(result.delivered, 1u);
  EXPECT_EQ(result.packets[0].lost, 1);
  EXPECT_EQ(result.packets[1].lost, 0);
}

TEST(OnlineRouter, PartitionExhaustsRetriesInsteadOfLivelocking) {
  // Two islands: 0-1 and 2-3; no route can ever form between them.
  GraphBuilder builder{4, "islands"};
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  const Graph host = std::move(builder).build();
  OnlineRouter router{host, FaultPlan{}};
  (void)router.run_until_stable(4096);

  Packet p;
  p.src = 0;
  p.dst = 3;
  p.via = 3;
  const OnlineRouteResult result = router.route({p}, /*max_steps=*/5000);
  EXPECT_EQ(result.lost, 1u);
  EXPECT_GT(result.retries, 0u);
  EXPECT_LT(result.steps, 5000u);  // retries ran out well before the ceiling
}

TEST(OnlineRouter, TablePolicyDrivesTheOfflineRouter) {
  const Graph host = make_mesh(3, 3);
  OnlineRouter router{host, FaultPlan{}};
  (void)router.run_until_stable(4096);

  OnlineTablePolicy policy{router};
  EXPECT_EQ(policy.name(), "online-tables");
  SyncRouter sync{host, PortModel::kMultiPort};
  const RouteResult result = sync.route(all_pairs_packets(host), policy);
  EXPECT_EQ(result.packets_lost, 0u);
}

TEST(OnlineAdaptiveSim, ExactWithoutChurn) {
  const Graph host = make_mesh(3, 3);
  Rng rng{0x51u};
  const Graph guest = make_random_regular(18, 3, rng);
  std::vector<NodeId> embedding;
  for (NodeId u = 0; u < 18; ++u) embedding.push_back(u % host.num_nodes());
  const FaultPlan quiet;
  OnlineAdaptiveSimulator sim{guest, host, embedding, quiet};
  const OnlineAdaptiveSimResult result = sim.run(3);
  EXPECT_TRUE(result.warmup_stable);
  EXPECT_EQ(result.packets_lost, 0u);
  EXPECT_EQ(result.stale_reads, 0u);
  EXPECT_TRUE(result.configs_match);  // zero churn: the regime must be exact
  EXPECT_GT(result.slowdown, 0.0);
  EXPECT_EQ(result.host_steps, result.comm_steps + result.compute_steps);
}

TEST(OnlineAdaptiveSim, SurvivesChurnWithStaleReadsNotCrashes) {
  const Graph host = make_mesh(3, 3);
  Rng rng{0x52u};
  const Graph guest = make_random_regular(18, 3, rng);
  std::vector<NodeId> embedding;
  for (NodeId u = 0; u < 18; ++u) embedding.push_back(u % host.num_nodes());
  const FaultPlan plan = make_link_churn(host, 0.3, 0xc0a1, /*horizon=*/1u << 14);
  OnlineAdaptiveSimulator sim{guest, host, embedding, plan};
  OnlineAdaptiveSimOptions options;
  options.warmup_rounds = 128;  // route over a still-learning protocol
  const OnlineAdaptiveSimResult result = sim.run(3, options);
  // Graceful degradation: the run always completes with a verdict per
  // packet, and every loss shows up as exactly one stale read.
  EXPECT_EQ(result.stale_reads, result.packets_lost);
  EXPECT_GT(result.packets_routed, 0u);
  EXPECT_GT(result.slowdown, 0.0);
}

TEST(OnlineRouter, DeliveryVerdictsAreCanonical) {
  std::vector<Packet> packets(2);
  packets[0].id = 1;
  packets[0].src = 3;
  packets[0].dst = 4;
  packets[0].lost = 1;
  packets[1].id = 0;
  packets[1].src = 7;
  packets[1].dst = 2;
  EXPECT_EQ(delivery_verdicts(packets), "0 7->2 ok\n1 3->4 lost\n");
}

}  // namespace
}  // namespace upn
