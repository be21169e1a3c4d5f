// Mesh-of-trees topology tests.
#include <gtest/gtest.h>

#include "src/topology/mesh_of_trees.hpp"
#include "src/topology/properties.hpp"
#include "src/util/math.hpp"
#include "tests/support/topology_oracles.hpp"

namespace upn {
namespace {

class MotSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MotSweep, StructuralInvariants) {
  const std::uint32_t side = GetParam();
  const Graph mot = make_mesh_of_trees(side);
  const MeshOfTreesLayout layout{side};
  EXPECT_EQ(mot.num_nodes(), layout.num_nodes());
  EXPECT_EQ(mot.num_nodes(), side * side + 2 * side * (side - 1));
  // Edge count: each of the 2*side trees has 2*(side-1) edges... exactly
  // (side-1) internal nodes each contributing 2 child edges.
  EXPECT_EQ(mot.num_edges(), 2ull * side * (side - 1) * 2);
  EXPECT_TRUE(is_connected(mot));
  EXPECT_LE(mot.max_degree(), 3u);
  // Diameter O(log side): up a column tree, across, down a row tree.
  EXPECT_LE(diameter(mot), 8 * ceil_log2(side) + 4);
}

TEST_P(MotSweep, GridNodesHaveDegreeTwo) {
  const std::uint32_t side = GetParam();
  const Graph mot = make_mesh_of_trees(side);
  const MeshOfTreesLayout layout{side};
  // Every grid node is a leaf of exactly one row tree and one column tree.
  for (std::uint32_t y = 0; y < side; ++y) {
    for (std::uint32_t x = 0; x < side; ++x) {
      EXPECT_EQ(mot.degree(layout.grid_id(x, y)), 2u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, MotSweep, ::testing::Values(2u, 4u, 8u, 16u));

TEST(MeshOfTrees, RootsHaveDegreeTwo) {
  const MeshOfTreesLayout layout{8};
  const Graph mot = make_mesh_of_trees(8);
  EXPECT_EQ(mot.degree(layout.row_internal(0, 0)), 2u);  // tree root
  EXPECT_EQ(mot.degree(layout.row_internal(0, 1)), 3u);  // internal node
}

TEST(MeshOfTrees, RejectsBadSide) {
  EXPECT_THROW(make_mesh_of_trees(3), std::invalid_argument);
  EXPECT_THROW(make_mesh_of_trees(1), std::invalid_argument);
}

}  // namespace
}  // namespace upn
