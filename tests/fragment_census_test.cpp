// Fragment census tests: the counting pipeline over many guests.
#include <gtest/gtest.h>

#include <cmath>

#include "src/lowerbound/fragment_census.hpp"
#include "tests/support/reference_fragment.hpp"

namespace upn {
namespace {

TEST(FragmentCensus, RunsAndTabulates) {
  Rng rng{404};
  const std::uint32_t m = 12;  // butterfly(2)
  const std::uint32_t a = g0_block_parameter(m);
  const std::uint32_t n = g0_round_guest_size(60, a);
  const G0 g0 = make_g0(n, m, rng);
  ThreadPool pool{1};
  const FragmentCensus census = run_fragment_census_par(g0, 2, 6, 8, 404, pool);
  EXPECT_EQ(census.guests, 6u);
  EXPECT_EQ(census.rows.size(), 6u);
  EXPECT_GT(census.mean_inefficiency, 0.0);
  EXPECT_GE(census.distinct_fragments, 1u);
  EXPECT_LE(census.distinct_fragments, 6u);
  // Every fragment's multiplicity bound is finite and positive (the
  // generator holds all 16 neighbor configurations).
  for (const FragmentCensusRow& row : census.rows) {
    EXPECT_TRUE(std::isfinite(row.log2_multiplicity));
    EXPECT_GT(row.log2_multiplicity, 0.0);
    EXPECT_GT(row.sum_b, 0u);
  }
  // The counting-chain reference values are populated.
  EXPECT_GT(census.log2_a_bound, 0.0);
  EXPECT_GT(census.log2_guest_space, 0.0);
}

TEST(FragmentCensus, HashDistinguishesFragments) {
  // Two different B' selections must hash differently.
  const Fragment a = testing::make_fragment(1, 2, {{0, 1}, {0, 1}}, {0, 1});
  const Fragment b = testing::make_fragment(1, 2, {{0, 1}, {0, 1}}, {1, 0});
  EXPECT_NE(fragment_hash(a), fragment_hash(b));
  const Fragment c = testing::make_fragment(1, 2, {{1}, {0, 1}}, {0, 1});
  EXPECT_NE(fragment_hash(a), fragment_hash(c));
  EXPECT_EQ(fragment_hash(a), fragment_hash(a));
}

TEST(FragmentCensus, DistinctGuestsUsuallyDistinctFragments) {
  // Different guests route different relations, so with a random embedding
  // per run the representative sets differ: expect near-zero collisions.
  Rng rng{505};
  const std::uint32_t m = 12;
  const std::uint32_t a = g0_block_parameter(m);
  const std::uint32_t n = g0_round_guest_size(60, a);
  const G0 g0 = make_g0(n, m, rng);
  ThreadPool pool{1};
  const FragmentCensus census = run_fragment_census_par(g0, 2, 5, 8, 505, pool);
  EXPECT_GE(census.distinct_fragments, 4u);
}

}  // namespace
}  // namespace upn
