// Golden snapshot regression for one fault-aware routing run: the full
// deterministic `routing.sync.*` snapshot of a seeded butterfly
// route_with_faults run, rendered as text, pinned byte-for-byte.  This pin
// predates the data-oriented engine rewrite (docs/ROUTER_ENGINE.md): the
// fast engine must reproduce every counter, gauge, and histogram bucket of
// the reference store-and-forward loop exactly, so any drift in delivery
// order, retransmission accounting, or queue peaks shows up as a readable
// diff.  This binary holds exactly one test so no other workload can
// register extra metrics into the process-wide registry.
#include <gtest/gtest.h>

#include <string>

#include "src/fault/fault_plan.hpp"
#include "src/obs/obs.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/router.hpp"
#include "src/topology/butterfly.hpp"
#include "src/util/rng.hpp"
#include "tests/support/snapshot_text.hpp"

namespace upn {
namespace {

// Regenerate after an intentional instrumentation change by running this
// test and copying the "actual" block from the failure message.
const char* const kGoldenSnapshot =
    R"(counter   routing.sync.backoff_delays     57
histogram routing.sync.backoff_steps      count=57 sum=184 [2:34 3:19 4:3 5:1]
gauge     routing.sync.max_queue_depth    value=0 max=11
counter   routing.sync.packets_lost       8
counter   routing.sync.packets_submitted  96
counter   routing.sync.reroutes           7
counter   routing.sync.retransmissions    57
counter   routing.sync.route_calls        1
histogram routing.sync.step_max_queue     count=61 sum=407 [0:1 1:4 2:2 3:32 4:22]
counter   routing.sync.steps              61
counter   routing.sync.transfers          375
)";

TEST(ObsGoldenRouter, ButterflyRouteWithFaultsSnapshotIsPinned) {
  obs::set_enabled(true);
  obs::registry().reset();

  const Graph host = make_butterfly(3);  // m = 32
  FaultPlan plan = make_uniform_link_faults(host, 0.08, 5, /*step=*/4);
  plan = merge_plans(plan, make_uniform_drops(host, 0.15, 5, 0, 40));
  plan = merge_plans(plan, make_uniform_node_faults(host, 0.05, 7, /*step=*/8));

  Rng rng{23};
  const HhProblem problem = random_h_relation(host.num_nodes(), 3, rng);
  std::vector<Packet> packets;
  packets.reserve(problem.size());
  for (const Demand& d : problem.demands()) {
    Packet p;
    p.src = d.src;
    p.dst = d.dst;
    p.via = d.dst;
    packets.push_back(p);
  }

  // Routed by the internal greedy live-subgraph oracle: every hop strictly
  // decreases the surviving-subgraph distance, so the run terminates under
  // any fault mix.
  SyncRouter router{host, PortModel::kSinglePort};
  FaultRouteOptions faults;
  faults.plan = &plan;
  faults.max_retries = 8;
  const RouteResult result = router.route_with_faults(std::move(packets), faults);
  ASSERT_GT(result.steps, 0u);
  ASSERT_EQ(result.packets.size(), problem.size());

  const std::string actual =
      obs::snapshot_text(obs::registry().snapshot(obs::MetricKind::kDeterministic));
  EXPECT_EQ(actual, kGoldenSnapshot)
      << "deterministic snapshot drifted; if intentional, update kGoldenSnapshot to:\n"
      << actual;
}

}  // namespace
}  // namespace upn
