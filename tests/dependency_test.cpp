// Dependency tree (Lemma 3.10) tests.
#include <gtest/gtest.h>

#include "src/lowerbound/dependency_tree.hpp"
#include "src/topology/multitorus.hpp"

namespace upn {
namespace {

class TreeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TreeSweep, TreeValidatesForEveryRootInBlockZero) {
  const std::uint32_t a = GetParam();
  const std::uint32_t block_side = 2 * a;
  const std::uint32_t n = 4 * block_side * block_side;  // 2x2 blocks
  const MultitorusLayout layout = multitorus_layout(n, block_side);
  const Graph mt = make_multitorus(n, block_side);
  const auto block_nodes = layout.block_nodes(0);
  for (const NodeId root : block_nodes) {
    const DependencyTree tree = build_block_dependency_tree(layout, 0, root);
    EXPECT_EQ(tree.root_vertex(), root);
    EXPECT_TRUE(validate_dependency_tree(tree, mt, block_nodes)) << "root=" << root;
    // Lemma 3.10 size budget: 48 a^2 (generous; measured constant reported
    // in benches).  Depth should be O(a).
    EXPECT_LE(tree.size(), 48u * 4 * a * a);
    EXPECT_LE(tree.depth, 8 * a);
    EXPECT_EQ(tree.leaves.size(), block_nodes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, TreeSweep, ::testing::Values(1u, 2u, 3u, 4u));

TEST(DependencyTree, WorksOnNonCornerBlocks) {
  const MultitorusLayout layout = multitorus_layout(144, 4);  // 3x3 blocks of 4x4
  const Graph mt = make_multitorus(144, 4);
  for (std::uint32_t block = 0; block < layout.num_blocks(); ++block) {
    const auto nodes = layout.block_nodes(block);
    const DependencyTree tree = build_block_dependency_tree(layout, block, nodes[5]);
    EXPECT_TRUE(validate_dependency_tree(tree, mt, nodes)) << "block=" << block;
  }
}

TEST(DependencyTree, DepthIsUniformAcrossRoots) {
  const MultitorusLayout layout = multitorus_layout(64, 4);
  const auto nodes = layout.block_nodes(0);
  const std::uint32_t depth0 = build_block_dependency_tree(layout, 0, nodes[0]).depth;
  for (const NodeId root : nodes) {
    EXPECT_EQ(build_block_dependency_tree(layout, 0, root).depth, depth0);
  }
}

TEST(DependencyTree, RejectsBadArguments) {
  const MultitorusLayout layout = multitorus_layout(64, 4);
  EXPECT_THROW((void)build_block_dependency_tree(layout, 9, 0), std::out_of_range);
  // Node 0 is in block 0, not block 1.
  EXPECT_THROW((void)build_block_dependency_tree(layout, 1, 0), std::invalid_argument);
}

TEST(DependencyTree, ValidatorDetectsCorruption) {
  const MultitorusLayout layout = multitorus_layout(64, 4);
  const Graph mt = make_multitorus(64, 4);
  const auto nodes = layout.block_nodes(0);
  {
    // Leaf time corruption: shift the declared depth.
    DependencyTree tree = build_block_dependency_tree(layout, 0, nodes[0]);
    tree.depth += 1;
    EXPECT_FALSE(validate_dependency_tree(tree, mt, nodes));
  }
  {
    // Branching corruption: duplicate a leaf under the root -> time break.
    DependencyTree tree = build_block_dependency_tree(layout, 0, nodes[0]);
    TreeNode extra = tree.nodes[tree.leaves[0]];
    extra.parent = 0;
    tree.nodes.push_back(extra);
    tree.leaves.push_back(static_cast<std::uint32_t>(tree.nodes.size() - 1));
    EXPECT_FALSE(validate_dependency_tree(tree, mt, nodes));
  }
  {
    // Leaf cover corruption: drop one leaf.
    DependencyTree tree = build_block_dependency_tree(layout, 0, nodes[0]);
    tree.leaves.pop_back();
    EXPECT_FALSE(validate_dependency_tree(tree, mt, nodes));
  }
}

TEST(DependencyTree, DotOutputMentionsRoot) {
  const MultitorusLayout layout = multitorus_layout(64, 4);
  const DependencyTree tree = build_block_dependency_tree(layout, 0, 0);
  const std::string dot = dependency_tree_to_dot(tree);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("P0"), std::string::npos);
}

}  // namespace
}  // namespace upn
