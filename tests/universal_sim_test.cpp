// Universal simulator tests: Theorem 2.1 executed and machine-checked.
#include <gtest/gtest.h>

#include "src/core/embedding.hpp"
#include "src/core/galil_paul.hpp"
#include "src/core/slowdown.hpp"
#include "src/core/universal_sim.hpp"
#include "src/pebble/validator.hpp"
#include "src/routing/policies.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/debruijn.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/torus.hpp"

namespace upn {
namespace {

TEST(UniversalSim, SimulatesTorusGuestOnButterflyCorrectly) {
  Rng rng{1};
  const Graph guest = make_torus(6, 6);       // n = 36
  const Graph host = make_butterfly(2);       // m = 12
  UniversalSimulator sim{guest, host, make_random_embedding(36, 12, rng)};
  const UniversalSimResult result = sim.run(5);
  EXPECT_TRUE(result.configs_match);
  EXPECT_EQ(result.guest_steps, 5u);
  EXPECT_GT(result.host_steps, 0u);
  EXPECT_GE(result.slowdown, static_cast<double>(result.load));
  EXPECT_GT(result.packets_routed, 0u);
}

TEST(UniversalSim, SlowdownAtLeastLoadBound) {
  Rng rng{2};
  const Graph guest = make_random_regular(64, 8, rng);
  const Graph host = make_torus(4, 4);
  UniversalSimulator sim{guest, host, make_random_embedding(64, 16, rng)};
  const UniversalSimResult result = sim.run(3);
  EXPECT_TRUE(result.configs_match);
  // s >= n/m: the load-induced lower bound of Section 1.
  EXPECT_GE(result.slowdown, 64.0 / 16.0);
  EXPECT_NEAR(result.inefficiency, result.slowdown * 16 / 64, 1e-12);
}

TEST(UniversalSim, EmittedProtocolValidates) {
  Rng rng{3};
  const Graph guest = make_random_regular(24, 4, rng);
  const Graph host = make_butterfly(2);  // m = 12
  UniversalSimulator sim{guest, host, make_random_embedding(24, 12, rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  const UniversalSimResult result = sim.run(3, options);
  EXPECT_TRUE(result.configs_match);
  ASSERT_TRUE(result.protocol.has_value());
  EXPECT_EQ(result.protocol->host_steps(), result.host_steps);
  const ValidationResult validation = validate_protocol(*result.protocol, guest, host);
  EXPECT_TRUE(validation.ok) << validation.error;
  EXPECT_NEAR(result.protocol->slowdown(), result.slowdown, 1e-12);
}

TEST(UniversalSim, SingleHostDegeneratesToSequentialExecution) {
  Rng rng{4};
  const Graph guest = make_cycle(10);
  const Graph host = make_path(1);  // one processor
  UniversalSimulator sim{guest, host, std::vector<NodeId>(10, 0)};
  const UniversalSimResult result = sim.run(4);
  EXPECT_TRUE(result.configs_match);
  EXPECT_EQ(result.comm_steps, 0u);           // everything is local
  EXPECT_EQ(result.compute_steps, 4u * 10u);  // n per guest step
  EXPECT_DOUBLE_EQ(result.slowdown, 10.0);
}

TEST(UniversalSim, HostEqualsGuestTopologyIsCheap) {
  // Simulating a torus on itself with the identity embedding: each guest
  // step needs one round of nearest-neighbor exchanges.
  const Graph guest = make_torus(4, 4);
  const Graph host = make_torus(4, 4);
  std::vector<NodeId> identity(16);
  for (NodeId v = 0; v < 16; ++v) identity[v] = v;
  UniversalSimulator sim{guest, host, identity};
  const UniversalSimResult result = sim.run(3);
  EXPECT_TRUE(result.configs_match);
  EXPECT_EQ(result.load, 1u);
  // Single-port: a degree-4 exchange needs >= 8 steps (one op per step).
  EXPECT_GE(result.slowdown, 8.0);
  EXPECT_LE(result.slowdown, 40.0);
}

TEST(UniversalSim, MultiPortIsFasterThanSinglePort) {
  Rng rng{5};
  const Graph guest = make_random_regular(48, 6, rng);
  const Graph host = make_debruijn(4);
  const auto embedding = make_random_embedding(48, 16, rng);
  UniversalSimulator sim{guest, host, embedding};
  UniversalSimOptions single, multi;
  single.port_model = PortModel::kSinglePort;
  multi.port_model = PortModel::kMultiPort;
  const auto r_single = sim.run(3, single);
  const auto r_multi = sim.run(3, multi);
  EXPECT_TRUE(r_single.configs_match);
  EXPECT_TRUE(r_multi.configs_match);
  EXPECT_LE(r_multi.comm_steps, r_single.comm_steps);
}

TEST(UniversalSim, ValiantPolicyWorks) {
  Rng rng{6};
  const Graph guest = make_random_regular(32, 4, rng);
  const Graph host = make_butterfly(2);
  UniversalSimulator sim{guest, host, make_random_embedding(32, 12, rng)};
  ValiantPolicy policy{host, 99};
  UniversalSimOptions options;
  options.policy = &policy;
  const UniversalSimResult result = sim.run(3, options);
  EXPECT_TRUE(result.configs_match);
}

TEST(UniversalSim, RejectsBadEmbedding) {
  const Graph guest = make_cycle(8);
  const Graph host = make_path(2);
  EXPECT_THROW((UniversalSimulator{guest, host, std::vector<NodeId>(4, 0)}),
               std::invalid_argument);
}

TEST(MeasureSlowdown, RowIsConsistent) {
  Rng rng{7};
  const Graph guest = make_random_regular(60, 6, rng);
  const Graph host = make_butterfly(2);
  const SlowdownRow row = measure_slowdown(guest, host, 3, rng);
  EXPECT_TRUE(row.verified);
  EXPECT_EQ(row.n, 60u);
  EXPECT_EQ(row.m, 12u);
  EXPECT_NEAR(row.load_bound, 5.0, 1e-12);
  EXPECT_GE(row.slowdown, row.load_bound);
  EXPECT_GT(row.normalized, 0.0);
}

TEST(SweepButterflyHosts, ProducesMonotoneHostSizes) {
  Rng rng{8};
  const Graph guest = make_random_regular(100, 6, rng);
  ThreadPool pool{1};
  const auto rows = sweep_butterfly_hosts_par(guest, 2, 100, 8, pool);
  ASSERT_GE(rows.size(), 2u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].m, rows[i - 1].m);
  }
  for (const auto& row : rows) EXPECT_TRUE(row.verified);
}

TEST(GalilPaul, CostShapeAndDelivery) {
  Rng rng{9};
  const Graph guest = make_random_regular(64, 8, rng);
  const GalilPaulCost cost = galil_paul_step_cost(guest, 16);
  EXPECT_TRUE(cost.delivered);
  EXPECT_GT(cost.rounds, 0u);
  EXPECT_EQ(cost.sorter_depth, 10u);  // bitonic on 16 wires: 4*5/2
  EXPECT_GE(cost.slowdown, static_cast<double>(cost.sorter_depth));
}

TEST(GalilPaul, SortingCostsMoreThanDirectRouting) {
  // The motivation for Theorem 2.1: sort-based routing pays log^2 m.
  Rng rng{10};
  const Graph guest = make_random_regular(128, 8, rng);
  const Graph host = make_butterfly(3);  // m = 32
  const GalilPaulCost gp = galil_paul_step_cost(guest, 32);
  const SlowdownRow direct = measure_slowdown(guest, host, 2, rng);
  EXPECT_GT(gp.slowdown, direct.load_bound);
  EXPECT_GT(gp.slowdown, 0.0);
}

}  // namespace
}  // namespace upn
