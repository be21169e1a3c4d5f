// Golden-value regression pins: fixed seeds must keep producing the exact
// same structures and counts release over release.  A change here is a
// behavioral change that needs a deliberate decision, not an accident.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/complete_sim.hpp"
#include "src/core/embedding.hpp"
#include "src/core/fault_tolerant_sim.hpp"
#include "src/core/galil_paul.hpp"
#include "src/core/offline_universal.hpp"
#include "src/core/online_adaptive_sim.hpp"
#include "src/core/scheduled_universal.hpp"
#include "src/core/universal_sim.hpp"
#include "src/compute/machine.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/pebble/io.hpp"
#include "src/routing/benes.hpp"
#include "src/routing/policies.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/torus.hpp"
#include "src/util/rng.hpp"
#include "tests/support/protocol_corpus.hpp"

namespace upn {
namespace {

TEST(Regression, RngStream) {
  Rng rng{0x5eed};
  const auto first = rng();
  EXPECT_NE(first, 0u);
  rng.reseed(0x5eed);
  EXPECT_EQ(rng(), first);
  rng.reseed(42);
  const auto a = rng();
  rng.reseed(42);
  EXPECT_EQ(rng(), a);
}

TEST(Regression, InitialConfigAndMixing) {
  EXPECT_EQ(initial_config(1, 0), initial_config(1, 0));
  const Config base = initial_config(7, 3);
  const std::vector<Config> nbrs{1, 2, 3};
  EXPECT_EQ(next_config(base, nbrs), next_config(base, nbrs));
}

TEST(Regression, ReferenceTrajectoryRepeats) {
  // The synchronous model's trajectory for a fixed topology and seed is
  // part of the library's contract (protocol payloads depend on it).
  const Graph g = make_torus(4, 4);
  SyncMachine machine{g, 12345};
  machine.run(8);
  SyncMachine again{g, 12345};
  again.run(8);
  EXPECT_EQ(machine.configs(), again.configs());
  EXPECT_NE(machine.configs(), std::vector<Config>(g.num_nodes(), 0));
}

TEST(Regression, RandomRegularEdgeCountAndDeterminism) {
  Rng rng1{99}, rng2{99};
  const Graph a = make_random_regular(64, 16, rng1);
  const Graph b = make_random_regular(64, 16, rng2);
  EXPECT_EQ(a.edge_list(), b.edge_list());
  EXPECT_EQ(a.num_edges(), 512u);
}

TEST(Regression, SimulatorCountsPinnedForFixedSeed) {
  Rng rng{1000};
  const Graph guest = make_random_regular(48, 8, rng);
  const Graph host = make_butterfly(2);
  const std::vector<NodeId> embedding = make_random_embedding(48, 12, rng);
  UniversalSimulator sim{guest, host, embedding};
  UniversalSimOptions options;
  options.emit_protocol = true;
  options.seed = 555;
  const UniversalSimResult r1 = sim.run(3, options);
  const UniversalSimResult r2 = sim.run(3, options);
  ASSERT_TRUE(r1.configs_match);
  // Deterministic end to end: identical reruns.
  EXPECT_EQ(r1.host_steps, r2.host_steps);
  EXPECT_EQ(r1.packets_routed, r2.packets_routed);
  EXPECT_EQ(r1.protocol->num_ops(), r2.protocol->num_ops());

  // Literal counts of every simulator on the same guest, host and embedding
  // (T = 3, configuration seed 555).
  EXPECT_EQ(r1.host_steps, 684u);
  EXPECT_EQ(r1.comm_steps, 672u);
  EXPECT_EQ(r1.compute_steps, 12u);
  EXPECT_EQ(r1.packets_routed, 1056u);
  EXPECT_EQ(r1.slowdown, 228.0);
  EXPECT_EQ(r1.protocol->num_ops(), 5160u);

  const OfflineUniversalResult offline = run_offline_universal(guest, 2, embedding, 3, 555);
  EXPECT_TRUE(offline.configs_match);
  EXPECT_EQ(offline.host_steps, 651u);
  EXPECT_EQ(offline.host_steps_single_port, 1290u);
  EXPECT_EQ(offline.schedule_steps, 213u);
  EXPECT_EQ(offline.compute_steps, 4u);
  EXPECT_EQ(offline.slowdown, 217.0);

  const ScheduledUniversalResult scheduled =
      run_scheduled_universal(guest, host, embedding, 3, 555);
  EXPECT_TRUE(scheduled.configs_match);
  EXPECT_EQ(scheduled.host_steps, 111u);
  EXPECT_EQ(scheduled.schedule_steps, 33u);
  EXPECT_EQ(scheduled.compute_steps, 4u);
  EXPECT_EQ(scheduled.slowdown, 37.0);

  const GalilPaulSimResult galil_paul = run_galil_paul(guest, 12, 3, 555);
  EXPECT_TRUE(galil_paul.configs_match);
  EXPECT_EQ(galil_paul.host_steps, 972u);
  EXPECT_EQ(galil_paul.slowdown, 324.0);

  // Host 3 dies during guest step 2 (replayed at the step-3 boundary) while
  // every link drops a tenth of its packets.
  FaultPlan fault_plan = make_uniform_drops(host, 0.1, 7);
  fault_plan.add_node_fault(NodeFault{3, 300});
  FaultTolerantSimulator fault_sim{guest, host, fault_plan, embedding};
  FaultSimOptions fault_options;
  fault_options.seed = 555;
  const FaultSimResult fault = fault_sim.run(3, fault_options);
  EXPECT_TRUE(fault.completed);
  EXPECT_TRUE(fault.configs_match);
  EXPECT_EQ(fault.fault_epochs, 1u);
  EXPECT_EQ(fault.host_steps, 791u);
  EXPECT_EQ(fault.comm_steps, 776u);
  EXPECT_EQ(fault.compute_steps, 15u);
  EXPECT_EQ(fault.packets_routed, 1074u);
  EXPECT_EQ(fault.slowdown, 791.0 / 3);
  EXPECT_EQ(fault.replay_steps, 24u);
  EXPECT_EQ(fault.retransmissions, 251u);

  // Churn plus a 48-step routing ceiling per guest step: some packets are
  // lost and their receivers read stale configurations.
  const FaultPlan churn = make_link_churn(host, 0.3, 9, 1u << 14);
  OnlineAdaptiveSimulator online_sim{guest, host, embedding, churn};
  OnlineAdaptiveSimOptions online_options;
  online_options.seed = 555;
  online_options.warmup_rounds = 256;
  online_options.max_comm_steps = 48;
  const OnlineAdaptiveSimResult online = online_sim.run(3, online_options);
  EXPECT_FALSE(online.configs_match);
  EXPECT_EQ(online.host_steps, 156u);
  EXPECT_EQ(online.comm_steps, 144u);
  EXPECT_EQ(online.compute_steps, 12u);
  EXPECT_EQ(online.packets_routed, 1056u);
  EXPECT_EQ(online.slowdown, 52.0);
  EXPECT_EQ(online.stale_reads, 49u);
  EXPECT_EQ(online.packets_lost, 49u);

  GreedyPolicy policy{host};
  const CompleteSimResult complete =
      run_complete_simulation(48, host, embedding, 3, policy, PortModel::kSinglePort, 555);
  EXPECT_TRUE(complete.configs_match);
  EXPECT_EQ(complete.host_steps, 110u);
  EXPECT_EQ(complete.slowdown, 110.0 / 3);
}

/// 64-bit FNV-1a of a protocol's .upnp text.
std::uint64_t upnp_digest(const Protocol& protocol) {
  std::ostringstream os;
  write_protocol(os, protocol);
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : os.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(Regression, EmittedProtocolBytesPinned) {
  // The exact .upnp text the emitters write, pinned across releases (two
  // runs of one build agreeing is determinism_test's job).
  {  // determinism_test's run: 16-node guest on butterfly(2), T = 4.
    Rng guest_rng{99};
    const Graph guest = make_random_regular(16, 4, guest_rng);
    const Graph host = make_butterfly(2);
    UniversalSimulator sim{guest, host, make_block_embedding(16, host.num_nodes())};
    UniversalSimOptions options;
    options.emit_protocol = true;
    const UniversalSimResult result = sim.run(4, options);
    ASSERT_TRUE(result.configs_match);
    EXPECT_EQ(result.protocol->num_ops(), 1248u);
    EXPECT_EQ(upnp_digest(*result.protocol), 10993649518908755404ull);
  }
  {  // The toy pipeline's size over its horizon: n = 144 on butterfly(2),
     // T = 16, so guest steps 2..16 route from the route memo.
    Rng rng{2024};
    const Graph guest = make_random_regular(144, 8, rng);
    const Graph host = make_butterfly(2);
    UniversalSimulator sim{guest, host, make_random_embedding(144, host.num_nodes(), rng)};
    UniversalSimOptions options;
    options.emit_protocol = true;
    options.seed = 555;
    const UniversalSimResult result = sim.run(16, options);
    ASSERT_TRUE(result.configs_match);
    EXPECT_EQ(result.host_steps, 11360u);
    EXPECT_EQ(result.protocol->num_ops(), 81664u);
    EXPECT_EQ(upnp_digest(*result.protocol), 17531076391254298303ull);
  }
  {  // The fault run above with emission on: 10% drops leave SENDs with no
     // RECEIVE, and host 3 dies mid-run.
    Rng rng{1000};
    const Graph guest = make_random_regular(48, 8, rng);
    const Graph host = make_butterfly(2);
    const std::vector<NodeId> embedding = make_random_embedding(48, 12, rng);
    FaultPlan fault_plan = make_uniform_drops(host, 0.1, 7);
    fault_plan.add_node_fault(NodeFault{3, 300});
    FaultTolerantSimulator fault_sim{guest, host, fault_plan, embedding};
    FaultSimOptions options;
    options.seed = 555;
    options.emit_protocol = true;
    const FaultSimResult result = fault_sim.run(3, options);
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(result.configs_match);
    EXPECT_EQ(result.host_steps, 791u);
    std::uint64_t sends = 0, receives = 0;
    for (const Op& op : testing::flat_ops(*result.protocol)) {
      sends += op.kind == OpKind::kSend;
      receives += op.kind == OpKind::kReceive;
    }
    EXPECT_GT(sends, receives);
    EXPECT_EQ(result.protocol->num_ops(), 5449u);
    EXPECT_EQ(upnp_digest(*result.protocol), 2297393885578690292ull);
  }
}

TEST(Regression, BenesPathsDeterministic) {
  Rng rng{7};
  const auto perm = rng.permutation(64);
  const BenesPaths a = benes_route(perm);
  const BenesPaths b = benes_route(perm);
  EXPECT_EQ(a.rows, b.rows);
}

}  // namespace
}  // namespace upn
