// FaultPlan queries, clock, generators, surgery, and serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "src/fault/fault_plan.hpp"
#include "src/fault/surgery.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/mesh.hpp"
#include "src/topology/properties.hpp"
#include "tests/support/fault_oracles.hpp"

namespace upn {
namespace {

TEST(FaultPlan, EmptyPlanKeepsEverythingAlive) {
  const FaultPlan plan{42};
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.node_alive(0, 0));
  EXPECT_TRUE(plan.node_alive(7, 1000));
  EXPECT_TRUE(plan.link_alive(0, 1, 1000));
  EXPECT_FALSE(plan.drops_packet(0, 1, 5, 9));
  EXPECT_TRUE(epochs(plan).empty());
}

TEST(FaultPlan, LinkFaultActivatesAtItsStep) {
  FaultPlan plan;
  plan.add_link_fault(LinkFault{2, 5, 10});
  EXPECT_TRUE(plan.link_alive(2, 5, 9));
  EXPECT_FALSE(plan.link_alive(2, 5, 10));
  EXPECT_FALSE(plan.link_alive(5, 2, 11));  // undirected
  EXPECT_TRUE(plan.link_alive(2, 6, 10));   // other links untouched
  EXPECT_TRUE(plan.node_alive(2, 100));
  EXPECT_TRUE(plan.link_ever_fails(5, 2));
  EXPECT_FALSE(plan.link_ever_fails(2, 6));
  EXPECT_EQ(epochs(plan), (std::vector<std::uint32_t>{10}));
}

TEST(FaultPlan, NodeFaultKillsIncidentLinks) {
  FaultPlan plan;
  plan.add_node_fault(NodeFault{3, 4});
  EXPECT_TRUE(plan.node_alive(3, 3));
  EXPECT_FALSE(plan.node_alive(3, 4));
  EXPECT_FALSE(plan.link_alive(3, 9, 4));
  EXPECT_FALSE(plan.link_alive(9, 3, 4));
  EXPECT_TRUE(plan.link_alive(8, 9, 4));
  EXPECT_TRUE(plan.node_ever_fails(3));
  EXPECT_FALSE(plan.node_ever_fails(9));
}

TEST(FaultPlan, DropDecisionIsDeterministicAndDirectionless) {
  FaultPlan plan{7};
  plan.add_drop_window(DropWindow{1, 2, 5, 10, 0.5});
  bool any_dropped = false;
  bool any_kept = false;
  for (std::uint32_t id = 0; id < 64; ++id) {
    const bool d = plan.drops_packet(1, 2, 7, id);
    EXPECT_EQ(d, plan.drops_packet(1, 2, 7, id));  // deterministic
    EXPECT_EQ(d, plan.drops_packet(2, 1, 7, id));  // undirected
    any_dropped |= d;
    any_kept |= !d;
  }
  EXPECT_TRUE(any_dropped);
  EXPECT_TRUE(any_kept);
  // Outside the window nothing drops.
  for (std::uint32_t id = 0; id < 64; ++id) {
    EXPECT_FALSE(plan.drops_packet(1, 2, 4, id));
    EXPECT_FALSE(plan.drops_packet(1, 2, 10, id));
  }
}

TEST(FaultPlan, RevealedAtQuantizesActivations) {
  FaultPlan plan{9};
  plan.add_link_fault(LinkFault{0, 1, 3});
  plan.add_link_fault(LinkFault{2, 3, 8});
  plan.add_node_fault(NodeFault{5, 6});
  plan.add_drop_window(DropWindow{0, 2, 0, 100, 0.25});

  const FaultPlan seen = plan.revealed_at(6);
  EXPECT_EQ(seen.seed(), plan.seed());
  // Activated faults re-dated to 0.
  EXPECT_FALSE(seen.link_alive(0, 1, 0));
  EXPECT_FALSE(seen.node_alive(5, 0));
  // Future faults invisible.
  EXPECT_TRUE(seen.link_alive(2, 3, 1000));
  // Drop windows kept verbatim.
  ASSERT_EQ(seen.drop_windows().size(), 1u);
  EXPECT_EQ(seen.drop_windows()[0], plan.drop_windows()[0]);
}

TEST(FaultClock, TracksActivationsIncrementally) {
  FaultPlan plan;
  plan.add_link_fault(LinkFault{0, 1, 2});
  plan.add_node_fault(NodeFault{4, 5});
  FaultClock clock{plan, 8};
  EXPECT_FALSE(clock.advance(0));
  EXPECT_TRUE(clock.link_alive(0, 1));
  EXPECT_TRUE(clock.node_alive(4));

  EXPECT_TRUE(clock.advance(2));
  EXPECT_FALSE(clock.link_alive(0, 1));
  EXPECT_TRUE(clock.node_alive(4));
  EXPECT_FALSE(clock.advance(3));  // nothing new

  EXPECT_TRUE(clock.advance(7));
  EXPECT_FALSE(clock.node_alive(4));
  EXPECT_FALSE(clock.link_alive(4, 6));  // incident link dead
  EXPECT_EQ(clock.dead_nodes()[4], 1);
}

TEST(FaultPlanGenerators, UniformRatesAreCoupledAcrossRates) {
  const Graph host = make_butterfly(3);
  const FaultPlan low = make_uniform_link_faults(host, 0.1, 77);
  const FaultPlan high = make_uniform_link_faults(host, 0.4, 77);
  EXPECT_LE(low.link_faults().size(), high.link_faults().size());
  // Every fault at the low rate also appears at the high rate.
  for (const LinkFault& f : low.link_faults()) {
    EXPECT_FALSE(high.link_alive(f.u, f.v, f.step));
  }
  // Extremes.
  EXPECT_TRUE(make_uniform_link_faults(host, 0.0, 77).empty());
  EXPECT_EQ(make_uniform_link_faults(host, 1.0, 77).link_faults().size(), host.num_edges());
  EXPECT_EQ(make_uniform_node_faults(host, 1.0, 77).node_faults().size(), host.num_nodes());
}

TEST(FaultPlanGenerators, Region) {
  const Graph mesh = make_mesh(5, 5);
  const FaultPlan region = make_region_fault(mesh, 12, 1, 0);  // center + 4 neighbors
  EXPECT_EQ(region.node_faults().size(), 5u);
  EXPECT_FALSE(region.node_alive(12, 0));
}

TEST(FaultPlanGenerators, MergeCombinesFaults) {
  FaultPlan a{1};
  a.add_link_fault(LinkFault{0, 1, 0});
  FaultPlan b{2};
  b.add_node_fault(NodeFault{3, 0});
  const FaultPlan merged = merge_plans(a, b);
  EXPECT_EQ(merged.seed(), 1u);
  EXPECT_FALSE(merged.link_alive(0, 1, 0));
  EXPECT_FALSE(merged.node_alive(3, 0));
}

TEST(FaultPlanIo, RoundTrip) {
  FaultPlan plan{0xabcdef};
  plan.add_link_fault(LinkFault{0, 1, 3});
  plan.add_link_fault(LinkFault{4, 2, 0});
  plan.add_node_fault(NodeFault{7, 9});
  plan.add_drop_window(DropWindow{1, 3, 2, 11, 0.125});
  plan.add_drop_window(DropWindow{0, 5, 0, 0xffffffffu, 1e-3});

  std::stringstream buffer;
  write_fault_plan(buffer, plan);
  const FaultPlan parsed = read_fault_plan(buffer);
  EXPECT_EQ(parsed.seed(), plan.seed());
  EXPECT_EQ(parsed.link_faults(), plan.link_faults());
  EXPECT_EQ(parsed.node_faults(), plan.node_faults());
  EXPECT_EQ(parsed.drop_windows(), plan.drop_windows());
}

TEST(FaultPlanIo, RejectsMalformedInput) {
  const char* bad[] = {
      "",                                           // empty
      "upn-faultplan 3 0 0 0 0\n",                  // unknown version
      "upn-faultplan 2 0 0 0 0\n",                  // v2 header missing repair count
      "upn-faultplan 1 0 1 0 0\n",                  // missing record
      "upn-faultplan 1 0 0 0 0\nL 0 1 2\n",         // extra record
      "upn-faultplan 1 0 1 0 0\nN 3 1\n",           // wrong record kind
      "upn-faultplan 1 0 1 0 0\nL 0 1\n",           // truncated record
      "upn-faultplan 1 0 0 0 1\nD 0 1 0 5 nope\n",  // non-numeric prob
  };
  for (const char* text : bad) {
    std::stringstream buffer{text};
    EXPECT_THROW((void)read_fault_plan(buffer), std::runtime_error) << text;
  }
}

TEST(FaultPlanRepairs, RepairRestoresLinkUntilNextFault) {
  FaultPlan plan;
  plan.add_link_fault(LinkFault{1, 2, 5});
  plan.add_link_repair(LinkRepair{2, 1, 8});  // undirected, like faults
  plan.add_link_fault(LinkFault{1, 2, 12});
  EXPECT_TRUE(plan.link_alive(1, 2, 4));
  EXPECT_FALSE(plan.link_alive(1, 2, 5));
  EXPECT_FALSE(plan.link_alive(1, 2, 7));
  EXPECT_TRUE(plan.link_alive(1, 2, 8));   // healed
  EXPECT_TRUE(plan.link_alive(2, 1, 11));
  EXPECT_FALSE(plan.link_alive(1, 2, 12));  // second failure sticks
  // History is not erased by the heal.
  EXPECT_TRUE(plan.link_ever_fails(1, 2));
  EXPECT_EQ(epochs(plan), (std::vector<std::uint32_t>{5, 8, 12}));
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanRepairs, SameStepKillAndHealLeavesLinkAlive) {
  FaultPlan plan;
  plan.add_link_fault(LinkFault{0, 3, 6});
  plan.add_link_repair(LinkRepair{0, 3, 6});
  EXPECT_TRUE(plan.link_alive(0, 3, 6));  // repair wins the tie
  EXPECT_TRUE(plan.link_alive(0, 3, 7));
}

TEST(FaultPlanRepairs, RepairNeverResurrectsNodes) {
  FaultPlan plan;
  plan.add_node_fault(NodeFault{3, 2});
  plan.add_link_repair(LinkRepair{3, 9, 5});
  EXPECT_FALSE(plan.node_alive(3, 5));
  EXPECT_FALSE(plan.link_alive(3, 9, 5));  // endpoint stays dead
  EXPECT_THROW(plan.add_link_repair(LinkRepair{4, 4, 0}), std::invalid_argument);
}

TEST(FaultClockRepairs, HealsIncrementally) {
  FaultPlan plan;
  plan.add_link_fault(LinkFault{0, 1, 2});
  plan.add_link_repair(LinkRepair{0, 1, 6});
  plan.add_link_fault(LinkFault{2, 3, 6});
  plan.add_link_repair(LinkRepair{2, 3, 6});  // same-step kill + heal
  FaultClock clock{plan, 8};
  EXPECT_FALSE(clock.advance(1));
  EXPECT_TRUE(clock.link_alive(0, 1));
  EXPECT_TRUE(clock.advance(2));
  EXPECT_FALSE(clock.link_alive(0, 1));
  EXPECT_TRUE(clock.advance(6));  // the heal IS a topology change
  EXPECT_TRUE(clock.link_alive(0, 1));
  EXPECT_TRUE(clock.link_alive(2, 3));  // repair wins the tie
  // The clock's view matches the plan's view at every step.
  FaultClock replay{plan, 8};
  for (std::uint32_t s = 0; s <= 8; ++s) {
    (void)replay.advance(s);
    EXPECT_EQ(replay.link_alive(0, 1), plan.link_alive(0, 1, s)) << s;
    EXPECT_EQ(replay.link_alive(2, 3), plan.link_alive(2, 3, s)) << s;
  }
}

TEST(FaultPlanRepairs, RevealedAtSnapshotsNetState) {
  FaultPlan plan{11};
  plan.add_link_fault(LinkFault{0, 1, 3});
  plan.add_link_repair(LinkRepair{0, 1, 6});
  plan.add_link_fault(LinkFault{2, 3, 4});

  // Mid-outage: the link is revealed as a step-0 fault.
  const FaultPlan mid = plan.revealed_at(4);
  EXPECT_FALSE(mid.link_alive(0, 1, 0));
  EXPECT_FALSE(mid.link_alive(2, 3, 0));

  // After the heal: the healed link vanishes from the reveal entirely --
  // the snapshot shows surviving topology, not the event log.
  const FaultPlan late = plan.revealed_at(10);
  EXPECT_TRUE(late.link_alive(0, 1, 0));
  EXPECT_FALSE(late.link_alive(2, 3, 0));
  EXPECT_TRUE(late.link_repairs().empty());
}

TEST(FaultPlanRepairs, MergeCarriesRepairs) {
  FaultPlan a{1};
  a.add_link_repair(LinkRepair{0, 1, 4});
  FaultPlan b{2};
  b.add_link_repair(LinkRepair{2, 3, 9});
  const FaultPlan merged = merge_plans(a, b);
  EXPECT_EQ(merged.link_repairs().size(), 2u);
}

TEST(FaultPlanGenerators, LinkChurnIsCoupledAndHeals) {
  const Graph host = make_butterfly(3);
  const FaultPlan low = make_link_churn(host, 0.1, 99, /*horizon=*/128);
  const FaultPlan high = make_link_churn(host, 0.5, 99, /*horizon=*/128);
  EXPECT_LE(low.link_faults().size(), high.link_faults().size());
  EXPECT_FALSE(high.link_faults().empty());
  EXPECT_EQ(high.link_faults().size(), high.link_repairs().size());
  // Coupling: every link churning at the low rate churns at the high rate.
  for (const LinkFault& f : low.link_faults()) {
    EXPECT_FALSE(high.link_alive(f.u, f.v, f.step)) << f.u << "," << f.v;
  }
  // Each outage lasts exactly `downtime` steps, then the link heals.
  const LinkFault& f = high.link_faults().front();
  EXPECT_FALSE(high.link_alive(f.u, f.v, f.step + 7));
  EXPECT_TRUE(high.link_alive(f.u, f.v, f.step + 8));  // default downtime = 8
  EXPECT_TRUE(make_link_churn(host, 0.0, 99, 128).empty());
}

TEST(FaultPlanIo, RepairRoundTripUsesVersion2) {
  FaultPlan plan{0x51};
  plan.add_link_fault(LinkFault{0, 1, 3});
  plan.add_link_repair(LinkRepair{0, 1, 9});
  std::stringstream buffer;
  write_fault_plan(buffer, plan);
  EXPECT_EQ(buffer.str().compare(0, 16, "upn-faultplan 2 "), 0);
  const FaultPlan parsed = read_fault_plan(buffer);
  EXPECT_EQ(parsed.link_repairs(), plan.link_repairs());
  EXPECT_EQ(parsed.link_faults(), plan.link_faults());

  // Repair records are rejected under the v1 header.
  std::stringstream v1{"upn-faultplan 1 0 1 0 0\nR 0 1 9\n"};
  EXPECT_THROW((void)read_fault_plan(v1), std::runtime_error);
}

TEST(Surgery, SurvivingSubgraphCompactsDeadNodes) {
  const Graph mesh = make_mesh(3, 3);  // node 4 is the center
  FaultPlan plan;
  plan.add_node_fault(NodeFault{4, 0});
  const SurvivingHost survivor = surviving_subgraph(mesh, plan);
  EXPECT_EQ(survivor.graph.num_nodes(), 8u);
  EXPECT_EQ(survivor.to_survivor[4], kNoSurvivor);
  EXPECT_EQ(survivor.to_original.size(), 8u);
  for (NodeId c = 0; c < survivor.graph.num_nodes(); ++c) {
    EXPECT_EQ(survivor.to_survivor[survivor.to_original[c]], c);
  }
  // Removing the center of a 3x3 mesh keeps the ring connected.
  EXPECT_TRUE(is_connected(survivor.graph));
  EXPECT_EQ(survivor.graph.num_edges(), mesh.num_edges() - 4);
}

TEST(Surgery, SurvivingEdgesGraphKeepsNodeIds) {
  const Graph mesh = make_mesh(3, 3);
  FaultPlan plan;
  plan.add_node_fault(NodeFault{4, 0});
  plan.add_link_fault(LinkFault{0, 1, 2});
  const Graph live = surviving_edges_graph(mesh, plan);
  EXPECT_EQ(live.num_nodes(), mesh.num_nodes());
  EXPECT_EQ(live.degree(4), 0u);         // dead node isolated
  EXPECT_FALSE(live.has_edge(0, 1));     // dead link removed
  EXPECT_TRUE(live.has_edge(0, 3));
  EXPECT_EQ(live.num_edges(), mesh.num_edges() - 5);
}

TEST(Surgery, DegradationReport) {
  const Graph mesh = make_mesh(2, 4);  // a path of 2-wide rungs
  FaultPlan plan;
  plan.add_link_fault(LinkFault{2, 4, 0});  // cut both rails between rows 1,2
  plan.add_link_fault(LinkFault{3, 5, 0});
  const DegradationReport report = assess_degradation(mesh, plan);
  EXPECT_EQ(report.original_nodes, 8u);
  EXPECT_EQ(report.live_nodes, 8u);
  EXPECT_EQ(report.dead_nodes, 0u);
  EXPECT_EQ(report.dead_links, 2u);
  EXPECT_EQ(report.components, 2u);
  EXPECT_EQ(report.largest_component, 4u);
  EXPECT_FALSE(report.connected);
}

TEST(Properties, ComponentHelpers) {
  GraphBuilder builder{5, "two-islands"};
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(3, 4);
  const Graph graph = std::move(builder).build();
  std::vector<std::uint32_t> labels;
  EXPECT_EQ(connected_components(graph, &labels), 2u);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(largest_component_size(graph), 3u);
  EXPECT_EQ(min_degree(graph), 1u);
}

}  // namespace
}  // namespace upn
