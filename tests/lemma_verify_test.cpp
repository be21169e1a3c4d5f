// Lemma 3.12 verification on protocols produced by the real simulator.
#include <gtest/gtest.h>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/lowerbound/lemma_verify.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"

namespace upn {
namespace {

struct Fixture {
  G0 g0;
  Graph guest;
  Graph host;
  Protocol protocol;
};

Fixture make_fixture(std::uint32_t guest_steps) {
  Rng rng{2024};
  const std::uint32_t m = 12;  // butterfly(2)
  const std::uint32_t a = g0_block_parameter(m);
  const std::uint32_t n = g0_round_guest_size(60, a);
  G0 g0 = make_g0(n, m, rng);
  Graph guest = make_random_regular_with_subgraph(g0.graph, kGuestDegree, rng);
  Graph host = make_butterfly(2);
  UniversalSimulator sim{guest, host, make_random_embedding(n, m, rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  UniversalSimResult result = sim.run(guest_steps, options);
  EXPECT_TRUE(result.configs_match);
  return Fixture{std::move(g0), std::move(guest), std::move(host),
                 std::move(*result.protocol)};
}

TEST(Lemma312, HoldsOnSimulatorProtocol) {
  const Fixture fx = make_fixture(14);
  ASSERT_TRUE(validate_protocol(fx.protocol, fx.guest, fx.host).ok);
  const ProtocolMetrics metrics{fx.protocol};
  const Lemma312Report report = verify_lemma312(metrics, fx.g0);

  EXPECT_GT(report.tree_depth, 0u);
  EXPECT_GT(report.inefficiency, 0.0);
  // The averaging argument guarantees a large Z_S.
  EXPECT_TRUE(report.z_large_enough)
      << "|Z| = " << report.z_set.size() << " T = " << metrics.guest_steps();
  ASSERT_FALSE(report.choices.empty());
  for (const auto& choice : report.choices) {
    EXPECT_EQ(choice.roots.size(), fx.g0.num_blocks());
    EXPECT_TRUE(choice.roots_ok)
        << "sum q = " << choice.sum_root_weights << " bound " << choice.bound_roots;
    EXPECT_TRUE(choice.trees_ok)
        << "sum w = " << choice.sum_tree_weights << " bound " << choice.bound_trees;
    // Each root must actually belong to its block.
    for (std::uint32_t j = 0; j < choice.roots.size(); ++j) {
      EXPECT_EQ(fx.g0.layout.block_of(choice.roots[j]), j);
    }
  }
  // The paper-form q-sum bound needs the protocol at least twice the tree
  // depth long (T / (T - depth) <= 2 in the averaging).
  if (metrics.guest_steps() >= 2 * report.tree_depth) {
    EXPECT_TRUE(report.sum_q_ok);
  }
}

// Breaks the premise behind the roots_ok and trees_ok bounds: G_0's blocks
// are 2a x 2a, so a root among the lightest 3a^2 of a block's 4a^2
// candidates weighs (and its tree weighs) at most the block's total / a^2.
// The fixture's blocks have side 4 (a = 2); read with a claimed a = 10, both
// bounds shrink 25-fold below what the selection guarantees, and the chosen
// roots and trees no longer fit under them.
TEST(Lemma312, ChoiceAboveTheBoundsOfAnOverclaimedBlockParameterFails) {
  const Fixture fx = make_fixture(14);
  ASSERT_EQ(fx.g0.a, 2u);
  G0 overclaimed = fx.g0;
  overclaimed.a = 10;
  const ProtocolMetrics metrics{fx.protocol};
  const Lemma312Report report = verify_lemma312(metrics, overclaimed);
  ASSERT_FALSE(report.choices.empty());
  const Lemma312Choice& first = report.choices.front();
  EXPECT_EQ(first.t0, 7u);
  EXPECT_EQ(first.sum_root_weights, 37u);
  // z2_bound = 4 * mean_t0 sum_i q_{i, t0 - depth} = 2836, over a^2 = 100.
  EXPECT_DOUBLE_EQ(first.bound_roots, 2836.0 / 100.0);
  EXPECT_FALSE(first.roots_ok);
  EXPECT_EQ(first.sum_tree_weights, 2211u);
  // z1_bound = 4 * mean_t0 of all candidate trees' weights = 136640.
  EXPECT_DOUBLE_EQ(first.bound_trees, 136640.0 / 100.0);
  EXPECT_FALSE(first.trees_ok);
  // The true block parameter keeps the same roots under the bound.
  const Lemma312Report honest = verify_lemma312(metrics, fx.g0);
  ASSERT_FALSE(honest.choices.empty());
  EXPECT_EQ(honest.choices.front().sum_root_weights, 37u);
  EXPECT_DOUBLE_EQ(honest.choices.front().bound_roots, 2836.0 / 4.0);
  EXPECT_TRUE(honest.choices.front().roots_ok);
  EXPECT_DOUBLE_EQ(honest.choices.front().bound_trees, 136640.0 / 4.0);
  EXPECT_TRUE(honest.choices.front().trees_ok);
}

TEST(Lemma312, RejectsTooShortProtocol) {
  const Fixture fx = make_fixture(2);
  const ProtocolMetrics metrics{fx.protocol};
  // Tree depth for a = 2 exceeds 2 guest steps.
  EXPECT_THROW((void)verify_lemma312(metrics, fx.g0), std::invalid_argument);
}

TEST(Lemma312, RejectsSizeMismatch) {
  const Fixture fx = make_fixture(14);
  Rng rng{5};
  const G0 wrong = make_g0(g0_round_guest_size(200, fx.g0.a), 12, rng);
  const ProtocolMetrics metrics{fx.protocol};
  EXPECT_THROW((void)verify_lemma312(metrics, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace upn
