// Zero-churn differential: with no faults in play, the online router's
// learned tables must reproduce the offline router's behavior EXACTLY --
// delivery verdicts byte-identical to the oracle-driven SyncRouter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/routing/online/online_router.hpp"
#include "src/routing/policies.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/mesh.hpp"
#include "src/util/rng.hpp"
#include "tests/support/routing_oracles.hpp"
#include "tests/support/table_policy.hpp"

namespace upn {
namespace {

std::vector<Packet> seeded_packets(const Graph& g, std::uint32_t count, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Packet> packets;
  packets.reserve(count);
  while (packets.size() < count) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId d = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == d) continue;
    Packet p;
    p.src = s;
    p.dst = d;
    p.via = d;
    packets.push_back(p);
  }
  return packets;
}

/// Converges an online router on a quiet host and routes the packets,
/// returning the delivery verdicts.
std::string run_online(const Graph& host, const std::vector<Packet>& packets) {
  const FaultPlan quiet;  // churn rate 0: no events, ever
  OnlineRouter router{host, quiet};
  const ConvergenceReport report = router.run_until_stable(1u << 14);
  EXPECT_TRUE(report.stable);
  const OnlineRouteResult result = router.route(packets);
  EXPECT_EQ(result.lost, 0u);
  return delivery_verdicts(result.packets);
}

std::string run_offline(const Graph& host, std::vector<Packet> packets) {
  GreedyPolicy greedy{host};
  SyncRouter sync{host, PortModel::kMultiPort};
  const RouteResult result = sync.route(std::move(packets), greedy);
  EXPECT_EQ(result.packets_lost, 0u);
  return delivery_verdicts(result.packets);
}

void expect_online_matches_offline(const Graph& host) {
  const std::vector<Packet> packets = seeded_packets(host, 64, 0xd1ff);
  const std::string offline = run_offline(host, packets);

  EXPECT_EQ(run_online(host, packets), offline) << host.name();

  // The table-policy bridge into the OFFLINE router agrees as well: learned
  // tables driving SyncRouter deliver everything the oracle delivers.
  OnlineRouter router{host, FaultPlan{}};
  (void)router.run_until_stable(1u << 14);
  OnlineTablePolicy policy{router};
  SyncRouter sync{host, PortModel::kMultiPort};
  const RouteResult bridged = sync.route(packets, policy);
  EXPECT_EQ(delivery_verdicts(bridged.packets), offline) << host.name();
}

TEST(OnlineDifferential, MatchesOfflineOnButterfly) {
  expect_online_matches_offline(make_butterfly(2));
}

TEST(OnlineDifferential, MatchesOfflineOnMesh) {
  expect_online_matches_offline(make_mesh(4, 6));
}

}  // namespace
}  // namespace upn
