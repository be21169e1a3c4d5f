// Benes / Waksman off-line permutation routing tests.
#include <gtest/gtest.h>

#include "src/routing/benes.hpp"
#include "src/util/rng.hpp"
#include "tests/support/routing_oracles.hpp"

namespace upn {
namespace {

TEST(Benes, IdentityPermutation) {
  const std::vector<std::uint32_t> perm{0, 1, 2, 3};
  const BenesPaths paths = benes_route(perm);
  EXPECT_TRUE(validate_benes_paths(paths, perm));
  EXPECT_EQ(paths.dimension, 2u);
}

TEST(Benes, SwapOfTwo) {
  const std::vector<std::uint32_t> perm{1, 0};
  const BenesPaths paths = benes_route(perm);
  EXPECT_TRUE(validate_benes_paths(paths, perm));
  EXPECT_EQ(paths.rows[0].back(), 1u);
  EXPECT_EQ(paths.rows[1].back(), 0u);
}

TEST(Benes, ReversalPermutation) {
  std::vector<std::uint32_t> perm(16);
  for (std::uint32_t i = 0; i < 16; ++i) perm[i] = 15 - i;
  const BenesPaths paths = benes_route(perm);
  EXPECT_TRUE(validate_benes_paths(paths, perm));
}

TEST(Benes, BitReversalPermutation) {
  std::vector<std::uint32_t> perm(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    perm[i] = ((i & 1) << 2) | (i & 2) | ((i >> 2) & 1);
  }
  const BenesPaths paths = benes_route(perm);
  EXPECT_TRUE(validate_benes_paths(paths, perm));
}

class BenesRandomSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BenesRandomSweep, RandomPermutationsValidate) {
  Rng rng{GetParam()};
  const std::uint32_t n = 1u << GetParam();
  for (int trial = 0; trial < 5; ++trial) {
    const auto perm = rng.permutation(n);
    const BenesPaths paths = benes_route(perm);
    ASSERT_TRUE(validate_benes_paths(paths, perm)) << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BenesRandomSweep, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 8u));

TEST(Benes, RejectsNonPowerOfTwo) {
  EXPECT_THROW(benes_route({0, 1, 2}), std::invalid_argument);
}

TEST(Benes, RejectsNonPermutation) {
  EXPECT_THROW(benes_route({0, 0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(benes_route({0, 1, 2, 4}), std::invalid_argument);
}

TEST(Benes, PathLevelsHaveCorrectEndpoints) {
  Rng rng{9};
  const auto perm = rng.permutation(32);
  const BenesPaths paths = benes_route(perm);
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(paths.rows[i].front(), i);
    EXPECT_EQ(paths.rows[i].back(), perm[i]);
    EXPECT_EQ(paths.rows[i].size(), 2u * paths.dimension + 1);
  }
}

TEST(ValidateBenesPaths, DetectsCorruption) {
  Rng rng{11};
  const auto perm = rng.permutation(8);
  BenesPaths paths = benes_route(perm);
  paths.rows[0][1] ^= 4u;  // illegal bit flip at stage 0 (only bit 0 allowed)
  EXPECT_FALSE(validate_benes_paths(paths, perm));
}

}  // namespace
}  // namespace upn
