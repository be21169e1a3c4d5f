// Randomized router invariants and the engine differential fuzzer.
//
// Part 1: across random hosts, relations, policies and port models, every
// packet is delivered exactly once, transfers conserve packets, and the step
// count respects trivial lower bounds.
//
// Part 2 (differential): the same randomized instances -- plus random
// FaultPlans and adversarially small step limits -- are driven through BOTH
// engines, the data-oriented SyncRouter and the preserved pre-rewrite
// ReferenceRouter, asserting byte-identical RouteResults (and the transfers
// each engine streams, step by step) or byte-identical thrown livelock
// diagnostics.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/fault/fault_plan.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/policies.hpp"
#include "src/routing/router.hpp"
#include "src/topology/properties.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/rng.hpp"
#include "tests/support/hop_recorder.hpp"
#include "tests/support/reference_router.hpp"

namespace upn {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  PortModel port_model;
};

class RouterFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(RouterFuzz, InvariantsHoldOnRandomInstances) {
  Rng rng{GetParam().seed};
  for (int trial = 0; trial < 12; ++trial) {
    // Random connected host: random regular graphs are connected w.h.p.;
    // retry if not.
    const auto m = static_cast<std::uint32_t>(rng.between(8, 48)) & ~1u;
    const auto degree = static_cast<std::uint32_t>(rng.between(3, 5));
    Graph host = make_random_regular(m, degree, rng);
    if (!is_connected(host)) continue;
    const auto h = static_cast<std::uint32_t>(rng.between(1, 4));
    const HhProblem problem = random_h_relation(m, h, rng);

    GreedyPolicy greedy{host};
    ValiantPolicy valiant{host, rng()};
    RoutingPolicy* policy = (rng.uniform() < 0.5) ? static_cast<RoutingPolicy*>(&greedy)
                                                  : static_cast<RoutingPolicy*>(&valiant);
    SyncRouter router{host, GetParam().port_model};
    std::vector<Packet> packets;
    for (const Demand& d : problem.demands()) {
      Packet p;
      p.src = d.src;
      p.dst = d.dst;
      p.via = d.dst;
      p.payload = (static_cast<std::uint64_t>(d.src) << 32) | d.dst;
      packets.push_back(p);
    }
    testing::HopRecorder streamed;
    const RouteResult result = router.route(std::move(packets), *policy, streamed.sink());

    // Every packet delivered with intact payload, and transfer counts add up.
    ASSERT_EQ(result.packets.size(), problem.size());
    ASSERT_EQ(streamed.steps().size(), result.steps) << "one sink call per router step";
    const std::vector<Transfer> transfers = streamed.hops();
    std::vector<std::uint32_t> hops(result.packets.size(), 0);
    for (const Transfer& tr : transfers) {
      ASSERT_LT(tr.packet, result.packets.size());
      ASSERT_TRUE(host.has_edge(tr.from, tr.to));
      ++hops[tr.packet];
    }
    DistanceOracle oracle{host};
    for (std::size_t i = 0; i < result.packets.size(); ++i) {
      const Packet& p = result.packets[i];
      ASSERT_GE(p.delivered_at, 0) << "undelivered packet";
      ASSERT_LE(p.delivered_at, static_cast<std::int64_t>(result.steps));
      ASSERT_EQ(p.payload, (static_cast<std::uint64_t>(p.src) << 32) | p.dst);
      // Hop count at least the shortest-path distance (via detours allowed).
      ASSERT_GE(hops[i], oracle.to(p.dst)[p.src]);
    }
    ASSERT_EQ(result.total_transfers, transfers.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RouterFuzz,
    ::testing::Values(FuzzCase{101, PortModel::kMultiPort},
                      FuzzCase{102, PortModel::kMultiPort},
                      FuzzCase{103, PortModel::kSinglePort},
                      FuzzCase{104, PortModel::kSinglePort},
                      FuzzCase{105, PortModel::kMultiPort},
                      FuzzCase{106, PortModel::kSinglePort}));

// ---- Part 2: the differential fuzzer. ------------------------------------

class RouterDifferentialFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(RouterDifferentialFuzz, FastEngineMatchesReferenceOnRandomInstances) {
  Rng rng{GetParam().seed * 7919};
  const PortModel model = GetParam().port_model;
  int executed = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto m = static_cast<std::uint32_t>(rng.between(8, 40)) & ~1u;
    const auto degree = static_cast<std::uint32_t>(rng.between(3, 5));
    Graph host = make_random_regular(m, degree, rng);
    if (!is_connected(host)) continue;
    ++executed;
    const auto h = static_cast<std::uint32_t>(rng.between(1, 5));
    const HhProblem problem = random_h_relation(m, h, rng);
    std::vector<Packet> packets;
    for (const Demand& d : problem.demands()) {
      Packet p;
      p.src = d.src;
      p.dst = d.dst;
      p.via = d.dst;
      p.payload = rng();
      packets.push_back(p);
    }
    const std::uint64_t policy_seed = rng();
    const bool use_valiant = rng.uniform() < 0.5;

    // A random fault cocktail on about half the trials: permanent link and
    // node deaths plus a transient drop window, all seeded from the fuzzer
    // stream so failures replay exactly.
    const bool faulted = rng.uniform() < 0.5;
    FaultPlan plan = make_uniform_link_faults(host, 0.06, rng(), /*step=*/1);
    plan = merge_plans(plan, make_uniform_node_faults(host, 0.04, rng(), /*step=*/3));
    plan = merge_plans(plan, make_uniform_drops(host, 0.12, rng(), 0, 16));
    FaultRouteOptions options;
    options.plan = &plan;
    options.max_retries = static_cast<std::uint32_t>(rng.between(2, 10));

    // Occasionally clamp the step budget hard enough that the run may throw:
    // both engines must then throw the identical livelock diagnostic.  Faulted
    // runs route every hop on the live-subgraph oracle and never need more
    // than a few hundred steps here; their smaller budget only bounds how
    // long a regression that spins can take before both engines report it.
    const bool clamped = rng.uniform() < 0.25;
    const std::uint32_t max_steps =
        clamped ? static_cast<std::uint32_t>(rng.between(1, 4))
                : (faulted ? 2048u : (1u << 22));

    auto run = [&](const auto& route, std::string& what) -> std::string {
      testing::HopRecorder streamed;
      try {
        const RouteResult result = route(streamed.sink());
        return testing::dump_route_result(result, &streamed);
      } catch (const std::runtime_error& e) {
        what = e.what();
        return "<livelock>";
      }
    };

    SCOPED_TRACE("trial " + std::to_string(trial) + " m=" + std::to_string(m) +
                 " degree=" + std::to_string(degree) + " h=" + std::to_string(h) +
                 (faulted ? " faulted" : "") + (clamped ? " clamped" : ""));
    GreedyPolicy fast_greedy{host};
    GreedyPolicy ref_greedy{host};
    ValiantPolicy fast_valiant{host, policy_seed};
    ValiantPolicy ref_valiant{host, policy_seed};
    SyncRouter fast{host, model};
    testing::ReferenceRouter ref{host, model};
    RoutingPolicy& fast_policy = use_valiant ? static_cast<RoutingPolicy&>(fast_valiant)
                                             : static_cast<RoutingPolicy&>(fast_greedy);
    RoutingPolicy& ref_policy = use_valiant ? static_cast<RoutingPolicy&>(ref_valiant)
                                            : static_cast<RoutingPolicy&>(ref_greedy);
    std::string fast_what;
    std::string ref_what;
    const std::string fast_dump = run(
        [&](const TransferSink& sink) {
          return faulted ? fast.route_with_faults(packets, options, sink, max_steps)
                         : fast.route(packets, fast_policy, sink, max_steps);
        },
        fast_what);
    const std::string ref_dump = run(
        [&](const TransferSink& sink) {
          return faulted ? ref.route_with_faults(packets, options, nullptr, sink, max_steps)
                         : ref.route(packets, ref_policy, sink, max_steps);
        },
        ref_what);
    ASSERT_EQ(fast_dump, ref_dump);
    ASSERT_EQ(fast_what, ref_what) << "livelock diagnostics must match byte-for-byte";
  }
  ASSERT_GT(executed, 0) << "every sampled host was disconnected; widen the generator";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RouterDifferentialFuzz,
    ::testing::Values(FuzzCase{201, PortModel::kMultiPort},
                      FuzzCase{202, PortModel::kMultiPort},
                      FuzzCase{203, PortModel::kSinglePort},
                      FuzzCase{204, PortModel::kSinglePort},
                      FuzzCase{205, PortModel::kMultiPort},
                      FuzzCase{206, PortModel::kSinglePort}));

}  // namespace
}  // namespace upn
