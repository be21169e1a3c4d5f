// Boundary behaviors across modules: the degenerate inputs a downstream
// user WILL eventually feed the library.
#include <gtest/gtest.h>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/pebble/validator.hpp"
#include "src/routing/decompose.hpp"
#include "src/routing/policies.hpp"
#include "src/routing/router.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/properties.hpp"
#include "tests/support/topology_oracles.hpp"

namespace upn {
namespace {

TEST(EdgeCases, ZeroStepSimulation) {
  Rng rng{1};
  const Graph guest = make_cycle(8);
  const Graph host = make_path(2);
  UniversalSimulator sim{guest, host, make_random_embedding(8, 2, rng)};
  const UniversalSimResult result = sim.run(0);
  EXPECT_TRUE(result.configs_match);  // nothing happened, states agree
  EXPECT_EQ(result.host_steps, 0u);
  EXPECT_DOUBLE_EQ(result.slowdown, 0.0);
}

TEST(EdgeCases, ZeroStepProtocolValidates) {
  const Protocol protocol{4, 2, 0};
  const ValidationResult result = validate_protocol(protocol, make_cycle(4), make_path(2));
  EXPECT_TRUE(result.ok) << result.error;  // final pebbles are initial ones
}

TEST(EdgeCases, SingleGuestOnSingleHost) {
  // n = 1: a guest with no neighbors; the simulation is pure computation.
  GraphBuilder b{1, "singleton"};
  const Graph guest = std::move(b).build();
  const Graph host = make_path(1);
  UniversalSimulator sim{guest, host, std::vector<NodeId>{0}};
  const UniversalSimResult result = sim.run(5);
  EXPECT_TRUE(result.configs_match);
  EXPECT_EQ(result.comm_steps, 0u);
  EXPECT_EQ(result.host_steps, 5u);
}

TEST(EdgeCases, GuestWithIsolatedNodes) {
  // Isolated guest nodes have no neighbors: they evolve from their own
  // configuration only and must still be simulated correctly.
  GraphBuilder b{6, "partial"};
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph guest = std::move(b).build();
  Rng rng{2};
  const Graph host = make_path(2);
  UniversalSimulator sim{guest, host, make_random_embedding(6, 2, rng)};
  const UniversalSimResult result = sim.run(4);
  EXPECT_TRUE(result.configs_match);
}

TEST(EdgeCases, RouterWithNoPackets) {
  const Graph host = make_butterfly(2);
  SyncRouter router{host, PortModel::kSinglePort};
  GreedyPolicy policy{host};
  const RouteResult result = router.route({}, policy);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_EQ(result.total_transfers, 0u);
}

TEST(EdgeCases, DecomposeSingletonNode) {
  HhProblem p{1};
  p.add(0, 0);
  const auto rounds = decompose_into_permutations(p);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].size(), 1u);
}

TEST(EdgeCases, DiameterOfSingleNode) {
  const Graph g = make_path(1);
  EXPECT_EQ(diameter(g), 0u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(girth(g), kUnreachable);
}

TEST(EdgeCases, EmbeddingMoreHostsThanGuestsSimulates) {
  Rng rng{3};
  const Graph guest = make_cycle(5);
  const Graph host = make_butterfly(2);  // 12 hosts, 5 guests: load 1
  UniversalSimulator sim{guest, host, make_random_embedding(5, 12, rng)};
  const UniversalSimResult result = sim.run(3);
  EXPECT_TRUE(result.configs_match);
  EXPECT_EQ(result.load, 1u);
  // m > n: slowdown is still >= 1 per the paper's remark on inefficiency.
  EXPECT_GE(result.slowdown, 1.0);
}

}  // namespace
}  // namespace upn
