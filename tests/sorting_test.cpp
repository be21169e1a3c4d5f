// Comparator network, bitonic, odd-even merge, OETS, sort-route tests.
#include <gtest/gtest.h>

#include "src/routing/hh_problem.hpp"
#include "src/sorting/bitonic.hpp"
#include "src/sorting/comparator_network.hpp"
#include "src/sorting/odd_even_merge.hpp"
#include "src/sorting/sort_route.hpp"
#include "src/util/rng.hpp"
#include "tests/support/sorting_oracles.hpp"

namespace upn {
namespace {

TEST(ComparatorNetwork, AppliesSingleComparator) {
  ComparatorNetwork net{2};
  net.add(0, 1);
  std::vector<std::uint64_t> values{5, 3};
  net.apply(values);
  EXPECT_EQ(values, (std::vector<std::uint64_t>{3, 5}));
}

TEST(ComparatorNetwork, DescendingComparator) {
  ComparatorNetwork net{2};
  net.add(1, 0);  // value at wire 1 <= value at wire 0 afterwards
  std::vector<std::uint64_t> values{3, 5};
  net.apply(values);
  EXPECT_EQ(values, (std::vector<std::uint64_t>{5, 3}));
}

TEST(ComparatorNetwork, RejectsWireReuseInLayer) {
  ComparatorNetwork net{4};
  net.begin_layer();
  net.add(0, 1);
  EXPECT_THROW(net.add(1, 2), std::invalid_argument);
  net.begin_layer();
  net.add(1, 2);  // fine in a fresh layer
  EXPECT_EQ(net.depth(), 2u);
  EXPECT_EQ(net.size(), 2u);
}

TEST(ComparatorNetwork, RejectsBadWires) {
  ComparatorNetwork net{3};
  EXPECT_THROW(net.add(0, 3), std::invalid_argument);
  EXPECT_THROW(net.add(1, 1), std::invalid_argument);
}

TEST(ComparatorNetwork, SizeMismatchThrows) {
  ComparatorNetwork net{3};
  std::vector<std::uint64_t> values{1, 2};
  EXPECT_THROW(net.apply(values), std::invalid_argument);
}

class SorterSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SorterSweep, BitonicIsASortingNetwork) {
  const std::uint32_t n = 1u << GetParam();
  const ComparatorNetwork net = make_bitonic_sorter(n);
  EXPECT_EQ(net.depth(), bitonic_depth(n));
  EXPECT_TRUE(is_sorting_network(net));
}

TEST_P(SorterSweep, OddEvenMergeIsASortingNetwork) {
  const std::uint32_t n = 1u << GetParam();
  EXPECT_TRUE(is_sorting_network(make_odd_even_merge_sorter(n)));
}

INSTANTIATE_TEST_SUITE_P(Dims, SorterSweep, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Bitonic, SortsRandomInputsAtScale) {
  Rng rng{12};
  const ComparatorNetwork net = make_bitonic_sorter(256);
  std::vector<std::uint64_t> values(256);
  for (auto& v : values) v = rng();
  net.apply(values);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

TEST(Bitonic, DepthFormula) {
  EXPECT_EQ(bitonic_depth(2), 1u);
  EXPECT_EQ(bitonic_depth(4), 3u);
  EXPECT_EQ(bitonic_depth(8), 6u);
  EXPECT_EQ(bitonic_depth(1024), 55u);
}

TEST(Bitonic, RejectsNonPowerOfTwo) {
  EXPECT_THROW(make_bitonic_sorter(6), std::invalid_argument);
  EXPECT_THROW(make_bitonic_sorter(0), std::invalid_argument);
}

TEST(OddEvenMerge, SortsRandomInputsAtScale) {
  Rng rng{13};
  const ComparatorNetwork net = make_odd_even_merge_sorter(128);
  std::vector<std::uint64_t> values(128);
  for (auto& v : values) v = rng() % 50;  // duplicates
  net.apply(values);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

TEST(Oets, IsSortingNetworkIncludingOddSizes) {
  for (std::uint32_t n : {2u, 3u, 5u, 8u, 13u}) {
    EXPECT_TRUE(is_sorting_network(make_odd_even_transposition_sorter(n))) << "n=" << n;
  }
}

TEST(Oets, DepthIsN) {
  EXPECT_EQ(make_odd_even_transposition_sorter(7).depth(), 7u);
}

TEST(Oets, OnlyNearestNeighborComparators) {
  const ComparatorNetwork net = make_odd_even_transposition_sorter(9);
  for (const auto& layer : net.layers()) {
    for (const Comparator& c : layer) {
      EXPECT_EQ(c.high, c.low + 1);
    }
  }
}

TEST(SortRoute, RoutesFullPermutation) {
  Rng rng{21};
  const ComparatorNetwork sorter = make_bitonic_sorter(64);
  const auto perm = rng.permutation(64);
  HhProblem problem{64};
  for (std::uint32_t i = 0; i < 64; ++i) problem.add(i, perm[i]);
  const std::vector<std::uint64_t> payloads(problem.size());
  const SortRouteDelivery delivery = deliver_relation_by_sorting(problem, payloads, sorter);
  EXPECT_TRUE(delivery.stats.delivered);
  EXPECT_EQ(delivery.stats.rounds, 1u);
  EXPECT_EQ(delivery.stats.comparator_steps, sorter.depth());
  EXPECT_EQ(delivery.records.size(), 64u);
}

TEST(SortRoute, RoutesHRelation) {
  Rng rng{22};
  const ComparatorNetwork sorter = make_bitonic_sorter(32);
  const HhProblem problem = random_h_relation(32, 3, rng);
  const std::vector<std::uint64_t> payloads(problem.size());
  const SortRouteStats stats = deliver_relation_by_sorting(problem, payloads, sorter).stats;
  EXPECT_TRUE(stats.delivered);
  EXPECT_LE(stats.rounds, 3u);
  EXPECT_EQ(stats.comparator_steps, static_cast<std::uint64_t>(stats.rounds) * sorter.depth());
}

TEST(SortRoute, SizeMismatchThrows) {
  const ComparatorNetwork sorter = make_bitonic_sorter(16);
  EXPECT_THROW((void)deliver_relation_by_sorting(HhProblem{8}, {}, sorter),
               std::invalid_argument);
  HhProblem problem{16};
  problem.add(0, 1);
  EXPECT_THROW((void)deliver_relation_by_sorting(problem, {}, sorter), std::invalid_argument);
}

}  // namespace
}  // namespace upn
