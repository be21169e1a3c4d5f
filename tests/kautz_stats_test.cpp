// Kautz graph and stats helper tests.
#include <gtest/gtest.h>

#include "src/topology/kautz.hpp"
#include "src/topology/properties.hpp"
#include "src/util/stats.hpp"
#include "tests/support/topology_oracles.hpp"

namespace upn {
namespace {

class KautzSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KautzSweep, StructuralInvariants) {
  const std::uint32_t d = GetParam();
  const Graph k = make_kautz(d);
  EXPECT_EQ(k.num_nodes(), kautz_size(d));
  EXPECT_TRUE(is_connected(k));
  EXPECT_LE(k.max_degree(), 4u);
  // Kautz diameter is d+1 (undirected can only be smaller).
  EXPECT_LE(diameter(k), d + 1);
}

INSTANTIATE_TEST_SUITE_P(Dims, KautzSweep, ::testing::Values(1u, 2u, 3u, 5u, 7u));

TEST(Kautz, SmallCasesExact) {
  // K(2,1): 6 vertices (the octahedron-like shift graph).
  const Graph k1 = make_kautz(1);
  EXPECT_EQ(k1.num_nodes(), 6u);
  EXPECT_TRUE(is_connected(k1));
  EXPECT_THROW((void)make_kautz(0), std::invalid_argument);
}

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({3.0, 1.0, 2.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Stats, OddMedianAndEmpty) {
  EXPECT_DOUBLE_EQ(summarize({5.0, 1.0, 3.0}).median, 3.0);
  EXPECT_EQ(summarize({}).count, 0u);
}

}  // namespace
}  // namespace upn
