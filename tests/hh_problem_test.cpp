// Tests for h-h routing problem representation and generators.
#include <gtest/gtest.h>

#include "src/core/embedding.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/torus.hpp"

namespace upn {
namespace {

TEST(HhProblem, ComputesH) {
  HhProblem p{4};
  p.add(0, 1);
  p.add(0, 2);
  p.add(3, 2);
  EXPECT_EQ(p.h(), 2u);  // node 0 sources 2, node 2 receives 2
}

TEST(HhProblem, EmptyInstance) {
  HhProblem p{4};
  EXPECT_EQ(p.h(), 0u);
  EXPECT_EQ(p.size(), 0u);
}

TEST(HhProblem, RejectsOutOfRange) {
  HhProblem p{4};
  EXPECT_THROW(p.add(0, 4), std::out_of_range);
}

TEST(RandomPermutation, IsPermutation) {
  Rng rng{5};
  const HhProblem p = random_permutation_problem(32, rng);
  EXPECT_EQ(p.size(), 32u);
  EXPECT_EQ(p.h(), 1u);
}

class HRelationSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HRelationSweep, ExactlyHRegular) {
  Rng rng{17};
  const std::uint32_t h = GetParam();
  const HhProblem p = random_h_relation(24, h, rng);
  EXPECT_EQ(p.size(), 24u * h);
  EXPECT_EQ(p.h(), h);
}

INSTANTIATE_TEST_SUITE_P(H, HRelationSweep, ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(GuestStepRelation, MatchesTheorem21Shape) {
  Rng rng{23};
  const Graph guest = make_random_regular(64, 16, rng);
  const std::uint32_t m = 16;
  const auto embedding = make_block_embedding(64, m);
  const HhProblem p = guest_step_relation(guest, embedding, m);
  // One demand per directed cross-host guest edge.
  std::uint64_t cross = 0;
  for (NodeId u = 0; u < 64; ++u) {
    for (const NodeId v : guest.neighbors(u)) {
      if (embedding[u] != embedding[v]) ++cross;
    }
  }
  EXPECT_EQ(p.size(), cross);
  // h <= c * ceil(n/m) by the theorem's argument.
  EXPECT_LE(p.h(), 16u * 4u);
}

TEST(GuestStepRelation, ColocatedGuestsNeedNoPackets) {
  const Graph guest = make_torus(4, 4);
  const auto embedding = std::vector<NodeId>(16, 0);  // all on one host
  const HhProblem p = guest_step_relation(guest, embedding, 2);
  EXPECT_EQ(p.size(), 0u);
}

TEST(GuestStepRelation, RejectsBadEmbedding) {
  const Graph guest = make_torus(4, 4);
  EXPECT_THROW(guest_step_relation(guest, std::vector<NodeId>(5, 0), 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace upn
