// Tests for the synchronous store-and-forward router and its policies.
#include <gtest/gtest.h>

#include <set>

#include "src/routing/hh_problem.hpp"
#include "src/routing/policies.hpp"
#include "src/routing/router.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/properties.hpp"
#include "src/topology/torus.hpp"
#include "src/util/rng.hpp"
#include "tests/support/hop_recorder.hpp"

namespace upn {
namespace {

std::vector<Packet> to_packets(const HhProblem& problem) {
  std::vector<Packet> packets;
  for (const Demand& d : problem.demands()) {
    Packet p;
    p.src = d.src;
    p.dst = d.dst;
    p.via = d.dst;
    packets.push_back(p);
  }
  return packets;
}

TEST(DistanceOracle, MatchesBfs) {
  const Graph t = make_torus(5, 5);
  DistanceOracle oracle{t};
  const auto& d0 = oracle.to(0);
  const auto ref = bfs_distances(t, 0);
  for (NodeId v = 0; v < t.num_nodes(); ++v) EXPECT_EQ(d0[v], ref[v]);
}

TEST(GreedyPolicy, NextHopReducesDistance) {
  const Graph t = make_torus(6, 6);
  GreedyPolicy policy{t};
  DistanceOracle oracle{t};
  Packet p;
  p.dst = 20;
  p.via = 20;
  for (NodeId at = 0; at < t.num_nodes(); ++at) {
    if (at == p.dst) continue;
    const NodeId next = policy.next_hop(t, at, p);
    EXPECT_TRUE(t.has_edge(at, next));
    EXPECT_EQ(oracle.to(20)[next] + 1, oracle.to(20)[at]);
  }
}

class PortModelSweep : public ::testing::TestWithParam<PortModel> {};

TEST_P(PortModelSweep, DeliversSinglePacket) {
  const Graph p = make_path(6);
  SyncRouter router{p, GetParam()};
  GreedyPolicy policy{p};
  std::vector<Packet> packets(1);
  packets[0].src = 0;
  packets[0].dst = 5;
  packets[0].via = 5;
  const RouteResult result = router.route(std::move(packets), policy);
  EXPECT_EQ(result.steps, 5u);
  EXPECT_EQ(result.packets[0].delivered_at, 5);
}

TEST_P(PortModelSweep, DeliversRandomPermutation) {
  const Graph host = make_butterfly(3);
  SyncRouter router{host, GetParam()};
  GreedyPolicy policy{host};
  Rng rng{31};
  const HhProblem problem = random_permutation_problem(host.num_nodes(), rng);
  const RouteResult result = router.route(to_packets(problem), policy);
  for (std::size_t i = 0; i < result.packets.size(); ++i) {
    EXPECT_GE(result.packets[i].delivered_at, 0) << "packet " << i << " undelivered";
  }
  EXPECT_GT(result.total_transfers, 0u);
}

TEST_P(PortModelSweep, SelfPacketsDeliverImmediately) {
  const Graph host = make_cycle(4);
  SyncRouter router{host, GetParam()};
  GreedyPolicy policy{host};
  std::vector<Packet> packets(1);
  packets[0].src = 2;
  packets[0].dst = 2;
  packets[0].via = 2;
  const RouteResult result = router.route(std::move(packets), policy);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_EQ(result.packets[0].delivered_at, 0);
}

INSTANTIATE_TEST_SUITE_P(Ports, PortModelSweep,
                         ::testing::Values(PortModel::kMultiPort, PortModel::kSinglePort));

TEST(SinglePort, TransfersFormMatchings) {
  const Graph host = make_torus(4, 4);
  SyncRouter router{host, PortModel::kSinglePort};
  GreedyPolicy policy{host};
  Rng rng{77};
  const HhProblem problem = random_h_relation(host.num_nodes(), 3, rng);
  testing::HopRecorder streamed;
  const RouteResult result = router.route(to_packets(problem), policy, streamed.sink());
  ASSERT_EQ(streamed.steps().size(), result.steps);
  // Within a streamed step every node appears at most once.
  for (std::uint32_t step = 0; step < result.steps; ++step) {
    std::vector<char> busy(host.num_nodes(), 0);
    for (const Transfer& tr : streamed.steps()[step]) {
      EXPECT_EQ(tr.step, step);
      EXPECT_TRUE(host.has_edge(tr.from, tr.to));
      EXPECT_FALSE(busy[tr.from]) << "node sent/received twice in step " << step;
      EXPECT_FALSE(busy[tr.to]);
      busy[tr.from] = 1;
      busy[tr.to] = 1;
    }
  }
}

TEST(MultiPort, RespectsLinkCapacity) {
  const Graph host = make_torus(4, 4);
  SyncRouter router{host, PortModel::kMultiPort};
  GreedyPolicy policy{host};
  Rng rng{78};
  const HhProblem problem = random_h_relation(host.num_nodes(), 4, rng);
  testing::HopRecorder streamed;
  const RouteResult result = router.route(to_packets(problem), policy, streamed.sink());
  ASSERT_EQ(streamed.steps().size(), result.steps);
  for (std::uint32_t step = 0; step < result.steps; ++step) {
    std::set<std::pair<NodeId, NodeId>> used;
    for (const Transfer& tr : streamed.steps()[step]) {
      EXPECT_EQ(tr.step, step);
      EXPECT_TRUE(used.emplace(tr.from, tr.to).second)
          << "directed link used twice in step " << step;
    }
  }
}

TEST(Valiant, DeliversAndVisitsIntermediate) {
  const Graph host = make_butterfly(3);
  SyncRouter router{host, PortModel::kMultiPort};
  ValiantPolicy policy{host, 123};
  Rng rng{5};
  const HhProblem problem = random_permutation_problem(host.num_nodes(), rng);
  const RouteResult result = router.route(to_packets(problem), policy);
  for (const Packet& p : result.packets) {
    EXPECT_GE(p.delivered_at, 0);
    EXPECT_EQ(p.phase, 1);  // completed the via phase
  }
}

TEST(Router, PolicyReturningNonNeighborThrows) {
  class BadPolicy final : public RoutingPolicy {
   public:
    NodeId next_hop(const Graph&, NodeId at, const Packet&) override { return at + 2; }
    std::string name() const override { return "bad"; }
  };
  const Graph p = make_path(5);
  SyncRouter router{p, PortModel::kMultiPort};
  BadPolicy policy;
  std::vector<Packet> packets(1);
  packets[0].src = 0;
  packets[0].dst = 4;
  packets[0].via = 4;
  EXPECT_THROW((void)router.route(std::move(packets), policy), std::logic_error);
}

TEST(Router, StepLimitDetectsLivelock) {
  class CircularPolicy final : public RoutingPolicy {
   public:
    NodeId next_hop(const Graph& g, NodeId at, const Packet&) override {
      return g.neighbors(at).front();
    }
    std::string name() const override { return "circular"; }
  };
  const Graph c = make_cycle(4);
  SyncRouter router{c, PortModel::kMultiPort};
  CircularPolicy policy;
  std::vector<Packet> packets(1);
  packets[0].src = 0;
  packets[0].dst = 2;
  packets[0].via = 2;
  // neighbors(0) = {1, 3}; always picking 1... the packet will reach 2 going
  // 0->1->0->1...: neighbors(1) = {0, 2}, front is 0 -> ping-pong forever.
  EXPECT_THROW((void)router.route(std::move(packets), policy, {}, 100),
               std::runtime_error);
}

TEST(MeasureRouteTime, ScalesWithH) {
  const Graph host = make_butterfly(3);
  GreedyPolicy policy{host};
  Rng rng{9};
  const auto t1 = measure_route_time(host, 1, policy, PortModel::kMultiPort, 3, rng);
  const auto t4 = measure_route_time(host, 4, policy, PortModel::kMultiPort, 3, rng);
  EXPECT_GT(t1.worst_steps, 0u);
  EXPECT_GT(t4.worst_steps, t1.worst_steps);
  EXPECT_GE(t4.mean_steps, t1.mean_steps);
}

}  // namespace
}  // namespace upn
