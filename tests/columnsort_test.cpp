// Leighton Columnsort tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/sorting/columnsort.hpp"
#include "src/util/rng.hpp"
#include "tests/support/sorting_oracles.hpp"

namespace upn {
namespace {

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed,
                                         std::uint64_t modulus = 0) {
  Rng rng{seed};
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = modulus ? rng() % modulus : rng();
  return values;
}

TEST(Columnsort, SingleColumnDegeneratesToSort) {
  auto values = random_values(17, 1);
  const ColumnsortStats stats = columnsort(values, 17, 1);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
  EXPECT_EQ(stats.column_sort_rounds, 1u);
}

class ColumnsortSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(ColumnsortSweep, SortsRandomInputs) {
  const auto [r, s] = GetParam();
  auto values = random_values(static_cast<std::size_t>(r) * s, 7 + r + s);
  const ColumnsortStats stats = columnsort(values, r, s);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
  EXPECT_EQ(stats.column_sort_rounds, 4u);
  EXPECT_EQ(stats.permutation_rounds, 4u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ColumnsortSweep,
                         ::testing::Values(std::pair{2u, 2u}, std::pair{8u, 2u},
                                           std::pair{9u, 3u}, std::pair{32u, 4u},
                                           std::pair{50u, 5u}, std::pair{72u, 6u}));

TEST(Columnsort, SortsWithDuplicates) {
  auto values = random_values(32 * 4, 99, /*modulus=*/7);
  columnsort(values, 32, 4);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

TEST(Columnsort, WorksWithComparatorNetworkColumnSorter) {
  const ComparatorNetwork oets = make_odd_even_transposition_sorter(32);
  auto values = random_values(32 * 4, 5);
  columnsort(values, 32, 4, [&](std::span<std::uint64_t> column) { oets.apply(column); });
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

TEST(Columnsort, PreservesMultiset) {
  auto values = random_values(50 * 5, 31, /*modulus=*/100);
  auto expected = values;
  std::sort(expected.begin(), expected.end());
  columnsort(values, 50, 5);
  EXPECT_EQ(values, expected);
}

TEST(Columnsort, RejectsViolatedPreconditions) {
  std::vector<std::uint64_t> values(12);
  EXPECT_THROW(columnsort(values, 4, 3), std::invalid_argument);   // r < 2(s-1)^2
  EXPECT_THROW(columnsort(values, 4, 2), std::invalid_argument);   // size mismatch
  std::vector<std::uint64_t> values10(10);
  EXPECT_THROW(columnsort(values10, 5, 2), std::invalid_argument); // r % s != 0
}

}  // namespace
}  // namespace upn
