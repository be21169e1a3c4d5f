// Fault-aware routing: detours, retransmission, loss accounting.
#include <gtest/gtest.h>

#include "src/fault/fault_plan.hpp"
#include "src/routing/router.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/mesh.hpp"
#include "tests/support/hop_recorder.hpp"

namespace upn {
namespace {

Packet make_packet(NodeId src, NodeId dst) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.via = dst;
  return p;
}

/// 0-1-2 short path plus a 0-3-4-2 long path.
Graph two_path_graph() {
  GraphBuilder builder{5, "two-paths"};
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 3);
  builder.add_edge(3, 4);
  builder.add_edge(4, 2);
  return std::move(builder).build();
}

TEST(FaultRouter, EmptyPlanMatchesFaultFreeRouting) {
  const Graph graph = make_mesh(4, 4);
  SyncRouter router{graph, PortModel::kSinglePort};
  const FaultPlan plan;
  FaultRouteOptions opts;
  opts.plan = &plan;
  std::vector<Packet> packets;
  for (NodeId v = 0; v < 8; ++v) packets.push_back(make_packet(v, 15 - v));
  const RouteResult result = router.route_with_faults(packets, opts);
  EXPECT_EQ(result.packets_lost, 0u);
  EXPECT_EQ(result.retransmissions, 0u);
  EXPECT_EQ(result.reroutes, 0u);
  for (const Packet& p : result.packets) {
    EXPECT_EQ(p.lost, 0);
    EXPECT_GE(p.delivered_at, 0);
  }
}

TEST(FaultRouter, DetoursAroundInitiallyDeadLink) {
  const Graph graph = two_path_graph();
  SyncRouter router{graph, PortModel::kSinglePort};
  FaultPlan plan;
  plan.add_link_fault(LinkFault{0, 1, 0});
  FaultRouteOptions opts;
  opts.plan = &plan;
  const RouteResult result = router.route_with_faults({make_packet(0, 2)}, opts);
  EXPECT_EQ(result.packets_lost, 0u);
  ASSERT_EQ(result.packets.size(), 1u);
  EXPECT_EQ(result.packets[0].lost, 0);
  EXPECT_GE(result.packets[0].delivered_at, 3);  // forced onto the long path
}

TEST(FaultRouter, ReroutesQueuedPacketsWhenLinkDiesMidRun) {
  const Graph graph = two_path_graph();
  SyncRouter router{graph, PortModel::kSinglePort};
  FaultPlan plan;
  plan.add_link_fault(LinkFault{0, 1, 2});  // dies after the first transfers
  FaultRouteOptions opts;
  opts.plan = &plan;
  std::vector<Packet> packets;
  for (int i = 0; i < 6; ++i) packets.push_back(make_packet(0, 2));
  const RouteResult result = router.route_with_faults(packets, opts);
  EXPECT_EQ(result.packets_lost, 0u);
  EXPECT_GT(result.reroutes, 0u);
  for (const Packet& p : result.packets) EXPECT_EQ(p.lost, 0);
}

TEST(FaultRouter, MultiPortModelAlsoConsultsThePlan) {
  const Graph graph = two_path_graph();
  SyncRouter router{graph, PortModel::kMultiPort};
  FaultPlan plan;
  plan.add_link_fault(LinkFault{0, 1, 0});
  FaultRouteOptions opts;
  opts.plan = &plan;
  const RouteResult result = router.route_with_faults({make_packet(0, 2)}, opts);
  EXPECT_EQ(result.packets_lost, 0u);
  EXPECT_EQ(result.packets[0].delivered_at, 3);  // 0-3-4-2 under multiport
}

TEST(FaultRouter, PacketToDeadDestinationIsLostNotThrown) {
  const Graph graph = make_mesh(3, 3);
  SyncRouter router{graph, PortModel::kSinglePort};
  FaultPlan plan;
  plan.add_node_fault(NodeFault{8, 0});
  FaultRouteOptions opts;
  opts.plan = &plan;
  const RouteResult result =
      router.route_with_faults({make_packet(0, 8), make_packet(0, 4)}, opts);
  EXPECT_EQ(result.packets_lost, 1u);
  EXPECT_EQ(result.packets[0].lost, 1);
  EXPECT_EQ(result.packets[1].lost, 0);
}

TEST(FaultRouter, PacketToUnreachableSurvivorIsLost) {
  // 0-1 and the isolated pair 2-3 once {1, 2} dies.
  GraphBuilder builder{4, "chain"};
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  const Graph graph = std::move(builder).build();
  SyncRouter router{graph, PortModel::kSinglePort};
  FaultPlan plan;
  plan.add_link_fault(LinkFault{1, 2, 0});
  FaultRouteOptions opts;
  opts.plan = &plan;
  const RouteResult result = router.route_with_faults({make_packet(0, 3)}, opts);
  EXPECT_EQ(result.packets_lost, 1u);
  EXPECT_EQ(result.packets[0].lost, 1);
}

TEST(FaultRouter, TransientDropsAreRetransmittedAndDeterministic) {
  const Graph graph = make_mesh(2, 2);
  FaultPlan plan{123};
  plan.add_drop_window(DropWindow{0, 1, 0, 0xffffffffu, 0.5});
  plan.add_drop_window(DropWindow{2, 3, 0, 0xffffffffu, 0.5});
  FaultRouteOptions opts;
  opts.plan = &plan;
  opts.max_retries = 64;
  std::vector<Packet> packets;
  for (int i = 0; i < 16; ++i) {
    packets.push_back(make_packet(0, 1));
    packets.push_back(make_packet(2, 3));
  }
  SyncRouter router{graph, PortModel::kSinglePort};
  testing::HopRecorder streamed;
  const RouteResult a = router.route_with_faults(packets, opts, streamed.sink());
  EXPECT_EQ(a.packets_lost, 0u);
  EXPECT_GT(a.retransmissions, 0u);
  bool saw_dropped_transfer = false;
  for (const Transfer& tr : streamed.hops()) saw_dropped_transfer |= tr.dropped != 0;
  EXPECT_TRUE(saw_dropped_transfer);

  const RouteResult b = router.route_with_faults(packets, opts);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_EQ(a.packets[i].delivered_at, b.packets[i].delivered_at);
    EXPECT_EQ(a.packets[i].retries, b.packets[i].retries);
  }
}

TEST(FaultRouter, RetryBudgetExhaustionLosesThePacket) {
  GraphBuilder builder{2, "one-link"};
  builder.add_edge(0, 1);
  const Graph graph = std::move(builder).build();
  SyncRouter router{graph, PortModel::kSinglePort};
  FaultPlan plan{5};
  plan.add_drop_window(DropWindow{0, 1, 0, 0xffffffffu, 1.0});  // always drops
  FaultRouteOptions opts;
  opts.plan = &plan;
  opts.max_retries = 3;
  const RouteResult result = router.route_with_faults({make_packet(0, 1)}, opts);
  EXPECT_EQ(result.packets_lost, 1u);
  EXPECT_EQ(result.packets[0].lost, 1);
  EXPECT_EQ(result.packets[0].retries, 4u);  // 3 retries + the final straw
  EXPECT_EQ(result.retransmissions, 4u);
}

TEST(FaultRouter, NullPlanWithoutPolicyThrows) {
  const Graph graph = make_mesh(2, 2);
  SyncRouter router{graph, PortModel::kSinglePort};
  FaultRouteOptions opts;  // plan == nullptr
  EXPECT_THROW((void)router.route_with_faults({make_packet(0, 1)}, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace upn
