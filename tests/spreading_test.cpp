// Spreading function measurements ([15]'s polynomial-spreading class).
#include <gtest/gtest.h>

#include "src/lowerbound/spreading.hpp"
#include "src/topology/expander.hpp"
#include "src/topology/mesh.hpp"
#include "src/topology/torus.hpp"

namespace upn {
namespace {

TEST(Spreading, ProfileMonotone) {
  const Graph t = make_torus(6, 6);
  const auto profile = spreading_profile(t, 7, 8);
  ASSERT_EQ(profile.size(), 9u);
  EXPECT_EQ(profile[0], 1u);
  for (std::size_t i = 1; i < profile.size(); ++i) {
    EXPECT_GE(profile[i], profile[i - 1]);
  }
  EXPECT_EQ(profile.back(), 36u);
}

TEST(Spreading, TorusIsQuadratic) {
  const Graph t = make_torus(20, 20);
  Rng rng{1};
  const SpreadingProfile profile = measure_spreading(t, 9, 10, rng);
  // 2D torus: |ball(t)| = 2t^2 + 2t + 1 before wrap.
  EXPECT_EQ(profile.max_ball[0], 1u);
  EXPECT_EQ(profile.max_ball[1], 5u);
  EXPECT_EQ(profile.max_ball[2], 13u);
  EXPECT_NEAR(profile.poly_exponent, 2.0, 0.35);
  EXPECT_TRUE(has_polynomial_spreading(profile, 8.0, 2.0));
}

TEST(Spreading, MeshIsQuadratic) {
  const Graph mesh = make_mesh(24, 24);
  Rng rng{2};
  const SpreadingProfile profile = measure_spreading(mesh, 10, 10, rng);
  EXPECT_NEAR(profile.poly_exponent, 2.0, 0.45);
}

TEST(Spreading, ExpanderIsExponential) {
  Rng rng{3};
  const Graph g = make_random_expander(512, rng, 0.1);
  Rng sample_rng{4};
  const SpreadingProfile profile = measure_spreading(g, 8, 10, sample_rng);
  // Degree-4 expander: balls grow geometrically until saturation.
  EXPECT_GT(profile.exp_rate, 0.8);
  EXPECT_GT(profile.poly_exponent, 2.5);  // no quadratic fit
  EXPECT_FALSE(has_polynomial_spreading(profile, 8.0, 2.0));
}

TEST(Spreading, MonotoneAndSaturating) {
  const Graph t = make_torus(8, 8);
  Rng rng{5};
  const SpreadingProfile profile = measure_spreading(t, 16, 5, rng);
  for (std::size_t i = 1; i < profile.max_ball.size(); ++i) {
    EXPECT_GE(profile.max_ball[i], profile.max_ball[i - 1]);
  }
  EXPECT_EQ(profile.max_ball.back(), 64u);  // whole graph reached
}

}  // namespace
}  // namespace upn
