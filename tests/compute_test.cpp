// Tests for the synchronous computation model (the simulation ground truth).
#include <gtest/gtest.h>

#include "src/compute/machine.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/torus.hpp"

namespace upn {
namespace {

TEST(NextConfig, DependsOnEveryInput) {
  const std::vector<Config> base{10, 20, 30};
  const Config reference = next_config(1, base);
  // Changing the own configuration changes the output.
  EXPECT_NE(next_config(2, base), reference);
  // Changing any neighbor changes the output.
  for (std::size_t i = 0; i < base.size(); ++i) {
    auto mutated = base;
    mutated[i] ^= 1;
    EXPECT_NE(next_config(1, mutated), reference);
  }
  // Changing neighbor ORDER changes the output (position-dependent mixing).
  const std::vector<Config> swapped{20, 10, 30};
  EXPECT_NE(next_config(1, swapped), reference);
}

TEST(InitialConfig, SeedAndNodeSensitive) {
  EXPECT_NE(initial_config(1, 0), initial_config(1, 1));
  EXPECT_NE(initial_config(1, 0), initial_config(2, 0));
}

TEST(SyncMachine, DeterministicAcrossRuns) {
  const Graph g = make_torus(4, 4);
  SyncMachine a{g, 99}, b{g, 99};
  a.run(10);
  b.run(10);
  EXPECT_EQ(a.configs(), b.configs());
  EXPECT_EQ(a.time(), 10u);
}

TEST(SyncMachine, SeedChangesTrajectory) {
  const Graph g = make_torus(4, 4);
  SyncMachine a{g, 1}, b{g, 2};
  a.run(5);
  b.run(5);
  EXPECT_NE(a.configs(), b.configs());
}

TEST(SyncMachine, InformationPropagatesAtSpeedOfGraph) {
  // On a path, perturbing node 0's seedless initial value must not affect
  // node 5 before 5 steps, and must affect it at step 5.
  const Graph path = make_path(8);
  SyncMachine base{path, 7};
  // A second machine with only node 0's initial config different: emulate
  // via direct stepping from modified snapshots.
  std::vector<Config> configs_a(8), configs_b(8);
  for (NodeId v = 0; v < 8; ++v) configs_a[v] = configs_b[v] = initial_config(7, v);
  configs_b[0] ^= 1;
  auto step = [&](std::vector<Config>& configs) {
    std::vector<Config> next(8);
    for (NodeId v = 0; v < 8; ++v) {
      std::vector<Config> nbrs;
      for (const NodeId u : path.neighbors(v)) nbrs.push_back(configs[u]);
      next[v] = next_config(configs[v], nbrs);
    }
    configs = next;
  };
  for (int t = 1; t <= 5; ++t) {
    step(configs_a);
    step(configs_b);
    if (t < 5) {
      EXPECT_EQ(configs_a[5], configs_b[5]) << "too-early influence at t=" << t;
    }
  }
  EXPECT_NE(configs_a[5], configs_b[5]) << "influence must arrive at t=5";
}

TEST(SyncMachine, RunReferenceMatchesStepwise) {
  Rng rng{3};
  const Graph g = make_random_regular(32, 4, rng);
  SyncMachine machine{g, 5};
  machine.run(7);
  EXPECT_EQ(run_reference(g, 5, 7), machine.configs());
}

TEST(SyncMachine, ZeroStepsKeepsInitialConfigs) {
  const Graph g = make_cycle(5);
  SyncMachine machine{g, 11};
  const auto before = machine.configs();
  machine.run(0);
  EXPECT_EQ(machine.configs(), before);
}

class MachineSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MachineSweep, ConfigsStableAcrossTopologies) {
  Rng rng{GetParam()};
  const Graph g = make_random_regular(64, 6, rng);
  SyncMachine a{g, GetParam()};
  a.run(12);
  SyncMachine b{g, GetParam()};
  b.run(12);
  EXPECT_EQ(a.configs(), b.configs());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineSweep, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace upn
