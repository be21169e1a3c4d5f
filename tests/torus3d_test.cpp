// 3D torus tests, including the cubic spreading exponent.
#include <gtest/gtest.h>

#include "src/lowerbound/spreading.hpp"
#include "src/topology/properties.hpp"
#include "src/topology/torus3d.hpp"
#include "tests/support/topology_oracles.hpp"

namespace upn {
namespace {

TEST(Torus3d, StructuralInvariants) {
  const Graph t = make_torus3d(4, 4, 4);
  EXPECT_EQ(t.num_nodes(), 64u);
  std::uint32_t degree = 0;
  EXPECT_TRUE(is_regular(t, &degree));
  EXPECT_EQ(degree, 6u);
  EXPECT_EQ(t.num_edges(), 3ull * 64);
  EXPECT_TRUE(is_connected(t));
  EXPECT_EQ(diameter(t), 6u);  // 2+2+2
}

TEST(Torus3d, AsymmetricDimensions) {
  const Graph t = make_torus3d(3, 4, 5);
  EXPECT_EQ(t.num_nodes(), 60u);
  EXPECT_TRUE(is_connected(t));
  EXPECT_EQ(diameter(t), 1u + 2u + 2u);
}

TEST(Torus3d, RejectsZeroDimension) {
  EXPECT_THROW(make_torus3d(0, 4, 4), std::invalid_argument);
}

TEST(Torus3d, CubicSpreading) {
  const Graph t = make_torus3d(10, 10, 10);
  Rng rng{3};
  const SpreadingProfile profile = measure_spreading(t, 4, 8, rng);
  // |ball(1)| = 7, |ball(2)| = 25: the 3D octahedral numbers.
  EXPECT_EQ(profile.max_ball[1], 7u);
  EXPECT_EQ(profile.max_ball[2], 25u);
  // The asymptotic exponent is 3; at these radii the lower-order terms of
  // the octahedral numbers pull the log-log slope down, but it must sit
  // strictly above the 2D value (~1.7-2.0) and below exponential growth.
  EXPECT_GT(profile.poly_exponent, 2.2);
  EXPECT_LT(profile.poly_exponent, 3.2);
  EXPECT_TRUE(has_polynomial_spreading(profile, 8.0, 3.0));
}

}  // namespace
}  // namespace upn
