// Generating-pebble expansion dynamics (Def 3.16 / Prop 3.17) tests.
#include <gtest/gtest.h>

#include <utility>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/lowerbound/expansion.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/expander.hpp"
#include "src/topology/random_regular.hpp"

namespace upn {
namespace {

TEST(Expansion, SimulatorProtocolRespectsProp317) {
  Rng rng{31337};
  const std::uint32_t n = 128, m = 12;
  // Guest: certified expander, upgraded to 16-regular.
  const Graph expander = make_random_expander(n, rng, 0.1);
  const ExpanderCertificate cert = verify_expander(expander, 0.1);
  ASSERT_TRUE(cert.valid);
  const Graph guest = make_random_regular_with_subgraph(expander, kGuestDegree, rng);
  const Graph host = make_butterfly(2);
  UniversalSimulator sim{guest, host, make_random_embedding(n, m, rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  const UniversalSimResult result = sim.run(10, options);
  ASSERT_TRUE(result.configs_match);

  const ProtocolMetrics metrics{*result.protocol};
  const ExpansionReport report = analyze_expansion(metrics, cert.alpha, cert.beta);
  ASSERT_FALSE(report.steps.empty());
  // Proposition 3.17: at tau_t, e_t is capped at (alpha/beta) n.
  EXPECT_TRUE(report.all_ok);
  for (const auto& step : report.steps) {
    EXPECT_LE(step.frontier, step.bound + 1e-9);
  }
  // Our step-by-step simulator finishes level t-1 before starting t, so the
  // frontier at tau_t is in fact 0.
  EXPECT_GT(report.pebbles_per_phase, 0.0);
}

TEST(Expansion, TausAreMonotone) {
  Rng rng{99};
  const std::uint32_t n = 64, m = 6;
  const Graph guest = make_random_regular(n, 8, rng);
  const Graph host = make_butterfly(1);  // 4 nodes... dimension 1 -> 2 levels x 2 rows
  UniversalSimulator sim{guest, host, make_random_embedding(n, host.num_nodes(), rng)};
  (void)m;
  UniversalSimOptions options;
  options.emit_protocol = true;
  const UniversalSimResult result = sim.run(6, options);
  ASSERT_TRUE(result.configs_match);
  const ProtocolMetrics metrics{*result.protocol};
  const ExpansionReport report = analyze_expansion(metrics, 0.25, 1.2);
  std::uint32_t prev = 0;
  for (const auto& step : report.steps) {
    EXPECT_GE(step.tau, prev);
    prev = step.tau;
  }
}

TEST(Expansion, PhaseGapForcesWork) {
  // The paper's mechanism: between tau_j and tau_{j+1}, alpha(1-1/beta)n new
  // generating pebbles appear.  On a step-by-step simulator the gap is at
  // least the per-guest-step routing+compute time, which is positive.
  Rng rng{7};
  const std::uint32_t n = 64;
  const Graph guest = make_random_regular(n, 8, rng);
  const Graph host = make_butterfly(2);
  UniversalSimulator sim{guest, host, make_random_embedding(n, host.num_nodes(), rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  const UniversalSimResult result = sim.run(8, options);
  const ProtocolMetrics metrics{*result.protocol};
  const ExpansionReport report = analyze_expansion(metrics, 0.2, 1.2);
  ASSERT_GE(report.steps.size(), 2u);
  EXPECT_GT(report.min_gap, 0u);
}

// A legal protocol that generates a time-2 pebble before the time-1 frontier
// reaches alpha n: guest path 0-1-2-3, alpha = 3/4 (threshold 3), one
// processor.  (P_0, 2) needs only (P_0, 1) and (P_1, 1), so it exists at
// tau_2 = 4, when (P_2, 1) completes the frontier.  The path's sets of at
// most 3 nodes expand by exactly 4/3 ({0, 1, 2}), and Prop. 3.17's cap
// (alpha / beta) n = 2.25 holds; claiming beta = 4 caps e_2(tau_2) at 0.75,
// which the protocol exceeds.
TEST(Expansion, FrontierAboveTheCapOfAnOverclaimedBetaFails) {
  Protocol protocol{4, 2, 2};
  for (const auto& [i, t] : {std::pair<NodeId, std::uint32_t>{0, 1}, {1, 1}, {0, 2}, {2, 1},
                             {3, 1}, {1, 2}, {2, 2}, {3, 2}}) {
    protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{i, t}, 0}}});
  }
  ASSERT_TRUE(validate_protocol(protocol, make_path(4), make_path(2)).ok);
  const ProtocolMetrics metrics{protocol};

  EXPECT_TRUE(analyze_expansion(metrics, 0.75, 4.0 / 3.0).all_ok);

  const ExpansionReport report = analyze_expansion(metrics, 0.75, 4.0);
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_EQ(report.steps[0].tau, 0u);
  EXPECT_EQ(report.steps[0].frontier, 0u);
  EXPECT_TRUE(report.steps[0].ok);
  const ExpansionStep& step = report.steps[1];
  EXPECT_EQ(step.t, 2u);
  EXPECT_EQ(step.tau, 4u);
  EXPECT_EQ(step.frontier, 1u);
  EXPECT_DOUBLE_EQ(step.bound, 0.75);
  EXPECT_FALSE(step.ok);
  EXPECT_FALSE(report.all_ok);
}

}  // namespace
}  // namespace upn
