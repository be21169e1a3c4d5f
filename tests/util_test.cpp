// Unit tests for src/util: RNG, log-domain math, tables, CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/cli.hpp"
#include "src/util/math.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

namespace upn {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng{7};
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsZero) {
  Rng rng{7};
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);  // degenerate bound treated as 1
}

TEST(Rng, BetweenInclusive) {
  Rng rng{9};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{11};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, PermutationIsBijective) {
  Rng rng{13};
  const auto perm = rng.permutation(257);
  std::set<std::uint32_t> values(perm.begin(), perm.end());
  EXPECT_EQ(values.size(), 257u);
  EXPECT_EQ(*values.begin(), 0u);
  EXPECT_EQ(*values.rbegin(), 256u);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng{17};
  std::vector<int> items{1, 1, 2, 3, 5, 8, 13};
  auto shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Math, Log2FactorialSmallValues) {
  EXPECT_NEAR(log2_factorial(0), 0.0, 1e-12);
  EXPECT_NEAR(log2_factorial(1), 0.0, 1e-12);
  EXPECT_NEAR(log2_factorial(4), std::log2(24.0), 1e-9);
  EXPECT_NEAR(log2_factorial(10), std::log2(3628800.0), 1e-9);
}

TEST(Math, Log2BinomialMatchesExact) {
  EXPECT_NEAR(log2_binomial(5, 2), std::log2(10.0), 1e-9);
  EXPECT_NEAR(log2_binomial(10, 5), std::log2(252.0), 1e-9);
  EXPECT_NEAR(log2_binomial(52, 5), std::log2(2598960.0), 1e-9);
}

TEST(Math, Log2BinomialDegenerate) {
  EXPECT_EQ(log2_binomial(5, 6), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(log2_binomial(5, -1), -std::numeric_limits<double>::infinity());
  EXPECT_NEAR(log2_binomial(5, 0), 0.0, 1e-12);
  EXPECT_NEAR(log2_binomial(5, 5), 0.0, 1e-12);
  EXPECT_EQ(log2_binomial(5, -0.0), 0.0);  // -0.0 is k == 0, not k < 0
}

TEST(Math, IntegerLogs) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Math, PowersOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(63));
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(64), 64u);
  EXPECT_EQ(next_power_of_two(65), 128u);
}

TEST(Math, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(99), 9u);
  EXPECT_EQ(isqrt(100), 10u);
  const std::uint64_t big = 0xffffffffull;
  EXPECT_EQ(isqrt(big * big), big);
  EXPECT_EQ(isqrt(big * big + 1), big);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2u);
  EXPECT_EQ(ceil_div(11, 5), 3u);
  EXPECT_EQ(ceil_div(1, 7), 1u);
}

TEST(Table, PrintsAlignedHeaders) {
  Table table{{"m", "slowdown"}};
  table.add_row({std::uint64_t{64}, 3.5});
  table.add_row({std::uint64_t{1024}, 12.25});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("slowdown"), std::string::npos);
  EXPECT_NE(text.find("1024"), std::string::npos);
  EXPECT_NE(text.find("12.25"), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table table{{"a", "b"}};
  table.add_row({std::string{"x"}, std::int64_t{-3}});
  std::ostringstream out;
  table.write_csv(out);
  EXPECT_EQ(out.str(), "a,b\nx,-3\n");
}

TEST(Table, RejectsMismatchedRow) {
  Table table{{"a", "b"}};
  EXPECT_THROW(table.add_row({std::uint64_t{1}}), std::invalid_argument);
}

TEST(Cli, ParsesSeparateAndEqualsForms) {
  const char* argv[] = {"prog", "--n", "128", "--m=64", "--verbose"};
  Cli cli{5, argv};
  EXPECT_EQ(cli.get_u64("n", 0), 128u);
  EXPECT_EQ(cli.get_u64("m", 0), 64u);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
  EXPECT_TRUE(cli.unused().empty());
}

TEST(Cli, DefaultsApply) {
  const char* argv[] = {"prog"};
  Cli cli{1, argv};
  EXPECT_EQ(cli.get_u64("n", 42), 42u);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.5), 0.5);
  EXPECT_EQ(cli.get("name", "fallback"), "fallback");
}

/// Expects `parse` to throw std::invalid_argument whose message names --flag.
template <typename Parse>
void expect_rejected(const char* flag, Parse parse) {
  try {
    (void)parse();
    ADD_FAILURE() << "--" << flag << " was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find(std::string{"--"} + flag), std::string::npos)
        << error.what();
  }
}

TEST(Cli, NumericFlagsTakeTheWholeUnsignedDecimal) {
  const char* argv[] = {"prog",        "--neg=-1",  "--trail=2x", "--empty=",
                        "--hex=0x10",  "--plus=+3", "--big=18446744073709551616",
                        "--rate=0.25", "--inf=inf", "--nan=nan",  "--huge=1e999",
                        "--drop=-0.5", "--max=18446744073709551615"};
  Cli cli{13, argv};
  for (const char* flag : {"neg", "trail", "empty", "hex", "plus", "big"}) {
    expect_rejected(flag, [&] { return cli.get_u64(flag, 0); });
  }
  EXPECT_EQ(cli.get_u64("max", 0), ~std::uint64_t{0});
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0), 0.25);
  for (const char* flag : {"inf", "nan", "huge", "drop", "trail", "empty", "hex"}) {
    expect_rejected(flag, [&] { return cli.get_double(flag, 0); });
  }
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW((Cli{2, argv}), std::invalid_argument);
}

TEST(Cli, TracksUnusedFlags) {
  const char* argv[] = {"prog", "--typo", "1"};
  Cli cli{3, argv};
  EXPECT_EQ(cli.unused().size(), 1u);
  EXPECT_EQ(cli.unused()[0], "typo");
}

}  // namespace
}  // namespace upn
