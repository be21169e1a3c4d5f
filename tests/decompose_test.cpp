// h-relation decomposition tests (Koenig edge coloring via Euler splits).
#include <gtest/gtest.h>

#include <map>

#include "src/routing/decompose.hpp"
#include "src/util/rng.hpp"
#include "tests/support/routing_oracles.hpp"

namespace upn {
namespace {

/// The multiset of demands in `rounds` equals the problem's demands.
void expect_same_multiset(const HhProblem& problem,
                          const std::vector<PermutationRound>& rounds) {
  std::map<std::pair<NodeId, NodeId>, int> count;
  for (const Demand& d : problem.demands()) ++count[{d.src, d.dst}];
  for (const auto& round : rounds) {
    for (const Demand& d : round) --count[{d.src, d.dst}];
  }
  for (const auto& [key, c] : count) {
    EXPECT_EQ(c, 0) << "demand (" << key.first << "," << key.second << ") unbalanced";
  }
}

TEST(Decompose, PermutationStaysOneRound) {
  Rng rng{3};
  const HhProblem p = random_permutation_problem(16, rng);
  const auto rounds = decompose_into_permutations(p);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_TRUE(is_partial_permutation(rounds[0], 16));
  expect_same_multiset(p, rounds);
}

class DecomposeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DecomposeSweep, HRelationIntoAtMostHRounds) {
  Rng rng{100 + GetParam()};
  const std::uint32_t h = GetParam();
  const HhProblem p = random_h_relation(20, h, rng);
  const auto rounds = decompose_into_permutations(p);
  EXPECT_LE(rounds.size(), h);
  for (const auto& round : rounds) EXPECT_TRUE(is_partial_permutation(round, 20));
  expect_same_multiset(p, rounds);
}

INSTANTIATE_TEST_SUITE_P(H, DecomposeSweep, ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u));

TEST(Decompose, IrregularInstancePadsCorrectly) {
  HhProblem p{6};
  p.add(0, 1);
  p.add(0, 2);
  p.add(0, 3);  // node 0 sources 3
  p.add(4, 3);  // node 3 receives 2
  const auto rounds = decompose_into_permutations(p);
  EXPECT_LE(rounds.size(), p.h());
  for (const auto& round : rounds) EXPECT_TRUE(is_partial_permutation(round, 6));
  expect_same_multiset(p, rounds);
}

TEST(Decompose, EmptyProblem) {
  const HhProblem p{5};
  EXPECT_TRUE(decompose_into_permutations(p).empty());
}

TEST(Decompose, SelfDemandsSupported) {
  HhProblem p{3};
  p.add(1, 1);
  p.add(1, 1);
  const auto rounds = decompose_into_permutations(p);
  EXPECT_EQ(rounds.size(), 2u);  // two copies cannot share a round
  expect_same_multiset(p, rounds);
}

TEST(Decompose, DuplicateDemandsLandInDistinctRounds) {
  HhProblem p{4};
  p.add(0, 1);
  p.add(0, 1);
  p.add(0, 1);
  const auto rounds = decompose_into_permutations(p);
  EXPECT_EQ(rounds.size(), 3u);
  for (const auto& round : rounds) {
    EXPECT_EQ(round.size(), 1u);
  }
}

TEST(IsPartialPermutation, DetectsViolations) {
  PermutationRound bad_src{{0, 1}, {0, 2}};
  EXPECT_FALSE(is_partial_permutation(bad_src, 4));
  PermutationRound bad_dst{{0, 2}, {1, 2}};
  EXPECT_FALSE(is_partial_permutation(bad_dst, 4));
  PermutationRound good{{0, 2}, {1, 3}};
  EXPECT_TRUE(is_partial_permutation(good, 4));
  PermutationRound out_of_range{{0, 7}};
  EXPECT_FALSE(is_partial_permutation(out_of_range, 4));
}

}  // namespace
}  // namespace upn
