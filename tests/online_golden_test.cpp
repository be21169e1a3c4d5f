// Golden snapshot regression for the online routing regime: one seeded
// churn run -- convergence, live kill/heal events, data-plane traffic --
// with the full deterministic routing.online.* metric snapshot pinned
// byte-for-byte.  This binary holds exactly one test so no other workload
// can register extra metrics into the process-wide registry.
#include <gtest/gtest.h>

#include <string>

#include "src/fault/fault_plan.hpp"
#include "src/obs/obs.hpp"
#include "src/routing/online/online_router.hpp"
#include "src/topology/mesh.hpp"
#include "src/util/rng.hpp"
#include "tests/support/snapshot_text.hpp"

namespace upn {
namespace {

// Regenerate after an intentional instrumentation change by running this
// test and copying the "actual" block from the failure message.
const char* const kGoldenSnapshot =
    R"(counter   routing.online.announcements_sent  1559
counter   routing.online.delivery_retries    0
counter   routing.online.entries_expired     0
counter   routing.online.packets_delivered   64
counter   routing.online.packets_lost        0
counter   routing.online.packets_submitted   64
counter   routing.online.route_calls         1
counter   routing.online.steps               135
gauge     routing.online.table_entries_peak  value=0 max=240
counter   routing.online.table_revisions     255
counter   routing.online.transfers           184
)";

std::string churn_run_snapshot() {
  obs::set_enabled(true);
  obs::registry().reset();

  const Graph host = make_mesh(4, 4);
  const FaultPlan plan = make_link_churn(host, 0.25, 0x90'1d, /*horizon=*/96);
  OnlineRouter router{host, plan};

  // Live through the churn, then converge, then route seeded traffic.
  while (router.now() < 96) (void)router.step();
  (void)router.run_until_stable(1u << 12);

  Rng rng{0x601d};
  std::vector<Packet> packets;
  while (packets.size() < 64) {
    const NodeId s = static_cast<NodeId>(rng.below(host.num_nodes()));
    const NodeId d = static_cast<NodeId>(rng.below(host.num_nodes()));
    if (s == d) continue;
    Packet p;
    p.src = s;
    p.dst = d;
    p.via = d;
    packets.push_back(p);
  }
  const OnlineRouteResult result = router.route(std::move(packets));
  EXPECT_EQ(result.delivered + result.lost, 64u);

  return obs::snapshot_text(obs::registry().snapshot(obs::MetricKind::kDeterministic));
}

TEST(OnlineGolden, ChurnRunSnapshotIsPinned) {
  const std::string snapshot = churn_run_snapshot();
  EXPECT_EQ(snapshot, kGoldenSnapshot)
      << "deterministic snapshot drifted; if intentional, update kGoldenSnapshot to:\n"
      << snapshot;
}

}  // namespace
}  // namespace upn
