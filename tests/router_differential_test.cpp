// Engine-vs-engine differential suite: the data-oriented SyncRouter
// (src/routing/router.cpp) must be byte-identical to the preserved
// pre-rewrite ReferenceRouter (tests/support/reference_router.cpp) on
// identical inputs -- full RouteResult plus the transfers each engine
// streams to its sink, router step by router step -- across
// both port models, fault-free and under FaultPlans, on every host family
// the paper's experiments exercise.  Results are compared as canonical
// dump_route_result() strings so a failure names the first diverging field.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/obs/obs.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/policies.hpp"
#include "src/routing/router.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/debruijn.hpp"
#include "src/topology/hypercube.hpp"
#include "src/topology/properties.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/rng.hpp"
#include "tests/support/hop_recorder.hpp"
#include "tests/support/reference_router.hpp"
#include "tests/support/snapshot_text.hpp"

namespace upn {
namespace {

using testing::HopRecorder;
using testing::ReferenceRouter;
using testing::dump_route_result;

/// The dump of `route(sink)` with the transfers it streamed to `sink`.
template <class Route>
std::string dump_streamed(const Route& route) {
  HopRecorder streamed;
  const RouteResult result = route(streamed.sink());
  return dump_route_result(result, &streamed);
}

std::vector<Graph> differential_hosts() {
  std::vector<Graph> hosts;
  hosts.push_back(make_butterfly(3));   // 32 nodes, the paper's host family
  hosts.push_back(make_hypercube(4));   // 16 nodes
  hosts.push_back(make_debruijn(5));    // 32 nodes, directed-degree 2 doubled
  Rng rng{424242};
  for (;;) {  // random regular hosts are connected w.h.p.; retry until one is
    Graph g = make_random_regular(24, 4, rng);
    if (is_connected(g)) {
      hosts.push_back(std::move(g));
      break;
    }
  }
  return hosts;
}

std::vector<Packet> make_packets(const HhProblem& problem) {
  std::vector<Packet> packets;
  packets.reserve(problem.size());
  for (const Demand& d : problem.demands()) {
    Packet p;
    p.src = d.src;
    p.dst = d.dst;
    p.via = d.dst;
    p.payload = (static_cast<std::uint64_t>(d.src) << 32) | d.dst;
    p.tag = d.src;
    p.tag2 = d.dst;
    packets.push_back(p);
  }
  return packets;
}

// The matrix the tentpole promises: hosts x seeds {3} x widths {1,2,7} x
// both port models, greedy and Valiant policies, fault-free.
TEST(RouterDifferential, FaultFreeByteIdentity) {
  for (const Graph& host : differential_hosts()) {
    const std::uint32_t m = host.num_nodes();
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
      for (const std::uint32_t h : {1u, 2u, 7u}) {
        Rng rng{seed * 1000 + h};
        const HhProblem problem = random_h_relation(m, h, rng);
        const std::vector<Packet> packets = make_packets(problem);
        for (const PortModel model : {PortModel::kMultiPort, PortModel::kSinglePort}) {
          SCOPED_TRACE(host.name() + " seed=" + std::to_string(seed) +
                       " h=" + std::to_string(h) +
                       (model == PortModel::kMultiPort ? " multiport" : " singleport"));
          {
            GreedyPolicy fast_policy{host};
            GreedyPolicy ref_policy{host};
            SyncRouter fast{host, model};
            ReferenceRouter ref{host, model};
            ASSERT_EQ(dump_streamed([&](const TransferSink& sink) {
                        return fast.route(packets, fast_policy, sink);
                      }),
                      dump_streamed([&](const TransferSink& sink) {
                        return ref.route(packets, ref_policy, sink);
                      }))
                << "greedy";
          }
          {
            ValiantPolicy fast_policy{host, seed ^ 0x5eedf00du};
            ValiantPolicy ref_policy{host, seed ^ 0x5eedf00du};
            SyncRouter fast{host, model};
            ReferenceRouter ref{host, model};
            ASSERT_EQ(dump_streamed([&](const TransferSink& sink) {
                        return fast.route(packets, fast_policy, sink);
                      }),
                      dump_streamed([&](const TransferSink& sink) {
                        return ref.route(packets, ref_policy, sink);
                      }))
                << "valiant";
          }
        }
      }
    }
  }
}

// Fault-aware runs: permanent link/node faults plus transient drop windows,
// every hop from the live-subgraph oracle.  Retries, reroutes, losses, and
// dropped transfers must all line up byte-for-byte.
//
// The oracle routes around every permanent fault, so these runs finish well
// inside the step budget; the budget only bounds the cost of a regression
// that would spin.  The comparison therefore still accepts either identical
// RouteResults or identical thrown livelock diagnostics -- the same contract
// the differential fuzzer checks.
TEST(RouterDifferential, FaultedByteIdentity) {
  constexpr std::uint32_t kMaxSteps = 512;
  const auto run = [](const auto& route) {
    try {
      return dump_streamed(route);
    } catch (const std::runtime_error& e) {
      return std::string("<livelock> ") + e.what();
    }
  };
  for (const Graph& host : differential_hosts()) {
    const std::uint32_t m = host.num_nodes();
    for (const std::uint64_t seed : {5u, 6u, 7u}) {
      for (const std::uint32_t h : {1u, 2u, 7u}) {
        Rng rng{seed * 77 + h};
        const HhProblem problem = random_h_relation(m, h, rng);
        const std::vector<Packet> packets = make_packets(problem);

        FaultPlan plan = merge_plans(make_uniform_link_faults(host, 0.08, seed, /*step=*/2),
                                     make_uniform_drops(host, 0.15, seed ^ 1u, 0, 24));
        plan = merge_plans(plan, make_uniform_node_faults(host, 0.05, seed ^ 2u, /*step=*/5));
        FaultRouteOptions options;
        options.plan = &plan;
        options.step_offset = static_cast<std::uint32_t>(seed % 3);
        options.max_retries = 8;

        for (const PortModel model : {PortModel::kMultiPort, PortModel::kSinglePort}) {
          SCOPED_TRACE(host.name() + " seed=" + std::to_string(seed) +
                       " h=" + std::to_string(h) +
                       (model == PortModel::kMultiPort ? " multiport" : " singleport"));
          SyncRouter fast{host, model};
          ReferenceRouter ref{host, model};
          ASSERT_EQ(run([&](const TransferSink& sink) {
                      return fast.route_with_faults(packets, options, sink, kMaxSteps);
                    }),
                    run([&](const TransferSink& sink) {
                      return ref.route_with_faults(packets, options, nullptr, sink, kMaxSteps);
                    }));
        }
      }
    }
  }
}

// Both engines must give up identically: same exception type, same
// diagnostic text, when the step limit cuts a run short.
TEST(RouterDifferential, LivelockDiagnosticsMatch) {
  const Graph host = make_butterfly(3);
  Rng rng{99};
  const HhProblem problem = random_h_relation(host.num_nodes(), 2, rng);
  const std::vector<Packet> packets = make_packets(problem);
  for (const PortModel model : {PortModel::kMultiPort, PortModel::kSinglePort}) {
    GreedyPolicy fast_policy{host};
    GreedyPolicy ref_policy{host};
    SyncRouter fast{host, model};
    ReferenceRouter ref{host, model};
    std::string fast_what;
    std::string ref_what;
    try {
      const RouteResult r = fast.route(packets, fast_policy, {}, /*max_steps=*/2);
      FAIL() << "fast engine finished a 2-step run that must hit the limit";
    } catch (const std::runtime_error& e) {
      fast_what = e.what();
    }
    try {
      const RouteResult r = ref.route(packets, ref_policy, {}, /*max_steps=*/2);
      FAIL() << "reference engine finished a 2-step run that must hit the limit";
    } catch (const std::runtime_error& e) {
      ref_what = e.what();
    }
    ASSERT_FALSE(fast_what.empty());
    ASSERT_EQ(fast_what, ref_what);
  }
}

// ---- Route memo ----------------------------------------------------------
// A SyncRouter replays its last fault-free GreedyPolicy route when the next
// call brings the same endpoints.  Every result below is checked against a
// fresh router (no memo) and, where the engines are compared, against the
// reference engine; `routing.sync.memo_hits` and RouteResult::replayed show
// whether a call replayed, and a replay streams nothing to the sink.

class RouterMemo : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::registry().reset();
  }
  void TearDown() override { obs::set_enabled(false); }

  static std::uint64_t memo_hits() {
    return obs::registry().counter("routing.sync.memo_hits").value();
  }

  /// A 2-relation on `host` plus one packet whose source is its destination.
  static std::vector<Packet> relation(const Graph& host, std::uint64_t seed) {
    Rng rng{seed};
    std::vector<Packet> packets = make_packets(random_h_relation(host.num_nodes(), 2, rng));
    Packet local;
    local.src = local.dst = local.via = host.num_nodes() / 2;
    local.payload = 77;
    packets.push_back(local);
    return packets;
  }

  /// What a router that has never routed before returns for this call.
  static std::string fresh_route(const Graph& host, PortModel model,
                                 const std::vector<Packet>& packets) {
    GreedyPolicy policy{host};
    SyncRouter router{host, model};
    return dump_route_result(router.route(packets, policy));
  }
};

TEST_F(RouterMemo, RepeatedRelationMatchesFreshAndReferenceRouters) {
  for (const Graph& host : differential_hosts()) {
    for (const PortModel model : {PortModel::kMultiPort, PortModel::kSinglePort}) {
      SCOPED_TRACE(host.name() + (model == PortModel::kMultiPort ? " multiport" : " singleport"));
      GreedyPolicy policy{host};
      SyncRouter router{host, model};
      const std::uint64_t hits_before = memo_hits();
      for (std::uint32_t call = 0; call < 3; ++call) {
        // Same endpoints every call; payloads and tags ride along untouched.
        std::vector<Packet> packets = relation(host, 17);
        for (Packet& p : packets) {
          p.payload += call;
          p.tag2 += call;
        }
        HopRecorder streamed;
        const RouteResult routed = router.route(packets, policy, streamed.sink());
        // The miss routes and streams every step; each hit says it replayed
        // and streams nothing.
        EXPECT_EQ(routed.replayed, call > 0) << "call " << call;
        EXPECT_EQ(streamed.steps().size(), call == 0 ? routed.steps : 0u) << "call " << call;
        const std::string memo = dump_route_result(routed);
        ASSERT_EQ(memo, fresh_route(host, model, packets)) << "call " << call;
        GreedyPolicy ref_policy{host};
        ReferenceRouter ref{host, model};
        HopRecorder ref_streamed;
        const RouteResult ref_routed = ref.route(packets, ref_policy, ref_streamed.sink());
        ASSERT_EQ(memo, dump_route_result(ref_routed)) << "call " << call;
        if (call == 0) {
          ASSERT_EQ(dump_route_result(routed, &streamed),
                    dump_route_result(ref_routed, &ref_streamed));
        }
      }
      // A hit without a sink is the same replay.
      const std::vector<Packet> packets = relation(host, 17);
      const RouteResult replay = router.route(packets, policy);
      EXPECT_TRUE(replay.replayed);
      ASSERT_EQ(dump_route_result(replay), fresh_route(host, model, packets));
      EXPECT_EQ(memo_hits() - hits_before, 3u);
    }
  }
}

TEST_F(RouterMemo, ObsSnapshotMatchesFreshRoutersApartFromMemoHits) {
  const Graph host = make_butterfly(3);
  const std::vector<Packet> packets = relation(host, 23);
  constexpr std::uint32_t kCalls = 3;
  const auto snapshot_without_memo_hits = [] {
    std::istringstream text{
        obs::snapshot_text(obs::registry().snapshot(obs::MetricKind::kDeterministic))};
    std::string kept;
    for (std::string line; std::getline(text, line);) {
      if (line.find("routing.sync.memo_hits") == std::string::npos) kept += line + "\n";
    }
    return kept;
  };
  for (const PortModel model : {PortModel::kMultiPort, PortModel::kSinglePort}) {
    GreedyPolicy policy{host};
    obs::registry().reset();
    SyncRouter router{host, model};
    for (std::uint32_t call = 0; call < kCalls; ++call) {
      HopRecorder streamed;
      static_cast<void>(router.route(packets, policy, streamed.sink()));
    }
    EXPECT_EQ(memo_hits(), kCalls - 1);
    const std::string reused = snapshot_without_memo_hits();

    obs::registry().reset();
    for (std::uint32_t call = 0; call < kCalls; ++call) {
      SyncRouter fresh{host, model};
      HopRecorder streamed;
      static_cast<void>(fresh.route(packets, policy, streamed.sink()));
    }
    EXPECT_EQ(memo_hits(), 0u);
    EXPECT_NE(reused.find("routing.sync.step_max_queue"), std::string::npos) << reused;
    EXPECT_EQ(reused, snapshot_without_memo_hits());
  }
}

TEST_F(RouterMemo, ChangedInputsMissAndReroute) {
  const Graph host = make_butterfly(3);
  const std::vector<Packet> packets = relation(host, 31);
  for (const PortModel model : {PortModel::kMultiPort, PortModel::kSinglePort}) {
    SCOPED_TRACE(model == PortModel::kMultiPort ? "multiport" : "singleport");
    {  // One endpoint changed.
      GreedyPolicy policy{host};
      SyncRouter router{host, model};
      static_cast<void>(router.route(packets, policy));
      std::vector<Packet> moved = packets;
      moved[3].dst = (moved[3].dst + 1) % host.num_nodes();
      moved[3].via = moved[3].dst;
      const std::uint64_t hits = memo_hits();
      const RouteResult rerouted = router.route(moved, policy);
      EXPECT_FALSE(rerouted.replayed);
      EXPECT_EQ(dump_route_result(rerouted), fresh_route(host, model, moved));
      EXPECT_EQ(memo_hits(), hits) << "endpoint change";
    }
    {  // A different GreedyPolicy object.
      GreedyPolicy first{host};
      GreedyPolicy second{host};
      SyncRouter router{host, model};
      static_cast<void>(router.route(packets, first));
      const std::uint64_t hits = memo_hits();
      const RouteResult rerouted = router.route(packets, second);
      EXPECT_FALSE(rerouted.replayed);
      EXPECT_EQ(dump_route_result(rerouted), fresh_route(host, model, packets));
      EXPECT_EQ(memo_hits(), hits) << "policy object";
    }
    {  // ValiantPolicy: phase 0 after prepare, never memoized.
      ValiantPolicy policy{host, 5};
      ValiantPolicy fresh_policy{host, 5};  // same random stream, fresh routers
      SyncRouter router{host, model};
      const std::uint64_t hits = memo_hits();
      for (std::uint32_t call = 0; call < 2; ++call) {
        SyncRouter fresh{host, model};
        EXPECT_EQ(dump_streamed([&](const TransferSink& sink) {
                    return router.route(packets, policy, sink);
                  }),
                  dump_streamed([&](const TransferSink& sink) {
                    return fresh.route(packets, fresh_policy, sink);
                  }))
            << "call " << call;
      }
      EXPECT_EQ(memo_hits(), hits) << "valiant";
    }
    {  // A fault plan: the schedule depends on the plan, never memoized.
      const FaultPlan plan = make_uniform_drops(host, 0.1, 9, 0, 8);
      FaultRouteOptions options;
      options.plan = &plan;
      SyncRouter router{host, model};
      const std::uint64_t hits = memo_hits();
      for (std::uint32_t call = 0; call < 2; ++call) {
        SyncRouter fresh{host, model};
        EXPECT_EQ(dump_streamed([&](const TransferSink& sink) {
                    return router.route_with_faults(packets, options, sink);
                  }),
                  dump_streamed([&](const TransferSink& sink) {
                    return fresh.route_with_faults(packets, options, sink);
                  }))
            << "call " << call;
      }
      EXPECT_EQ(memo_hits(), hits) << "fault plan";
    }
  }
}

TEST_F(RouterMemo, HitStreamsNothingWhateverTheMissStreamed) {
  // The memo keeps no hops: a sink on a hit after a miss without one gets
  // nothing, and the result says it was a replay.
  const Graph host = make_butterfly(3);
  const std::vector<Packet> packets = relation(host, 37);
  for (const PortModel model : {PortModel::kMultiPort, PortModel::kSinglePort}) {
    SCOPED_TRACE(model == PortModel::kMultiPort ? "multiport" : "singleport");
    GreedyPolicy policy{host};
    SyncRouter router{host, model};
    const RouteResult routed = router.route(packets, policy);
    EXPECT_FALSE(routed.replayed);
    const std::uint64_t hits = memo_hits();
    HopRecorder streamed;
    const RouteResult replay = router.route(packets, policy, streamed.sink());
    EXPECT_TRUE(replay.replayed);
    EXPECT_TRUE(streamed.steps().empty());
    EXPECT_EQ(dump_route_result(replay), fresh_route(host, model, packets));
    EXPECT_EQ(memo_hits(), hits + 1);
  }
}

TEST_F(RouterMemo, StepLimitBelowMemoizedStepsStillThrows) {
  const Graph host = make_butterfly(3);
  const std::vector<Packet> packets = relation(host, 41);
  for (const PortModel model : {PortModel::kMultiPort, PortModel::kSinglePort}) {
    GreedyPolicy policy{host};
    SyncRouter router{host, model};
    const std::uint32_t steps = router.route(packets, policy).steps;
    ASSERT_GT(steps, 1u);
    try {
      static_cast<void>(router.route(packets, policy, {}, steps - 1));
      FAIL() << "a " << steps - 1 << "-step budget must not replay a " << steps << "-step route";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("step limit exceeded"), std::string::npos) << e.what();
    }
    // A miss releases the memo before routing, so the failed call left none:
    // the exact budget re-routes, and the call after it replays.
    const std::uint64_t hits = memo_hits();
    EXPECT_EQ(router.route(packets, policy, {}, steps).steps, steps);
    EXPECT_EQ(memo_hits(), hits);
    EXPECT_EQ(router.route(packets, policy, {}, steps).steps, steps);
    EXPECT_EQ(memo_hits(), hits + 1);
  }
}

}  // namespace
}  // namespace upn
