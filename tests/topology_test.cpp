// Structural invariants of every topology builder, including parameterized
// sweeps over sizes (degree sequences, connectivity, diameters, regularity).
#include <gtest/gtest.h>

#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/ccc.hpp"
#include "src/topology/debruijn.hpp"
#include "src/topology/hypercube.hpp"
#include "src/topology/mesh.hpp"
#include "src/topology/multitorus.hpp"
#include "src/topology/properties.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/shuffle_exchange.hpp"
#include "src/topology/torus.hpp"
#include "tests/support/topology_oracles.hpp"

namespace upn {
namespace {

TEST(Builders, PathHasCorrectShape) {
  const Graph p = make_path(5);
  EXPECT_EQ(p.num_edges(), 4u);
  EXPECT_EQ(p.degree(0), 1u);
  EXPECT_EQ(p.degree(2), 2u);
  EXPECT_EQ(diameter(p), 4u);
}

TEST(Builders, CycleIsTwoRegular) {
  const Graph c = make_cycle(7);
  std::uint32_t degree = 0;
  EXPECT_TRUE(is_regular(c, &degree));
  EXPECT_EQ(degree, 2u);
  EXPECT_EQ(diameter(c), 3u);
}

TEST(Builders, CompleteGraph) {
  const Graph k = make_complete(6);
  EXPECT_EQ(k.num_edges(), 15u);
  EXPECT_EQ(diameter(k), 1u);
}

TEST(Builders, BinaryTree) {
  const Graph t = make_complete_binary_tree(4);
  EXPECT_EQ(t.num_nodes(), 15u);
  EXPECT_EQ(t.num_edges(), 14u);
  EXPECT_TRUE(is_connected(t));
  EXPECT_EQ(t.degree(0), 2u);    // root
  EXPECT_EQ(t.degree(14), 1u);   // leaf
}

class MeshSweep : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(MeshSweep, MeshInvariants) {
  const auto [w, h] = GetParam();
  const Graph mesh = make_mesh(w, h);
  EXPECT_EQ(mesh.num_nodes(), w * h);
  EXPECT_EQ(mesh.num_edges(), static_cast<std::uint64_t>(w) * (h - 1) + static_cast<std::uint64_t>(h) * (w - 1));
  EXPECT_TRUE(is_connected(mesh));
  EXPECT_EQ(diameter(mesh), w + h - 2);
  EXPECT_LE(mesh.max_degree(), 4u);
}

TEST_P(MeshSweep, TorusInvariants) {
  const auto [w, h] = GetParam();
  if (w < 3 || h < 3) GTEST_SKIP() << "wrap edges degenerate below side 3";
  const Graph torus = make_torus(w, h);
  std::uint32_t degree = 0;
  EXPECT_TRUE(is_regular(torus, &degree));
  EXPECT_EQ(degree, 4u);
  EXPECT_EQ(torus.num_edges(), 2ull * w * h);
  EXPECT_EQ(diameter(torus), w / 2 + h / 2);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshSweep,
                         ::testing::Values(std::pair{2u, 2u}, std::pair{3u, 3u},
                                           std::pair{4u, 4u}, std::pair{5u, 3u},
                                           std::pair{8u, 8u}, std::pair{6u, 10u}));

TEST(Mesh, SquareValidation) {
  EXPECT_THROW(make_square_mesh(10), std::invalid_argument);
  EXPECT_EQ(make_square_mesh(16).num_nodes(), 16u);
}

class MultitorusSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(MultitorusSweep, StructureAndPartition) {
  const auto [n, a] = GetParam();
  const Graph mt = make_multitorus(n, a);
  const MultitorusLayout layout = multitorus_layout(n, a);
  EXPECT_EQ(mt.num_nodes(), n);
  EXPECT_TRUE(is_connected(mt));
  EXPECT_LE(mt.max_degree(), 8u);
  EXPECT_GE(mt.max_degree(), 4u);
  // Blocks partition the nodes.
  std::vector<char> seen(n, 0);
  for (std::uint32_t b = 0; b < layout.num_blocks(); ++b) {
    for (const NodeId v : layout.block_nodes(b)) {
      EXPECT_EQ(layout.block_of(v), b);
      EXPECT_FALSE(seen[v]);
      seen[v] = 1;
    }
  }
  for (const char s : seen) EXPECT_TRUE(s);
  // Every block is a torus: its induced wrap edges exist.
  const Grid2D grid = layout.grid();
  const auto nodes = layout.block_nodes(0);
  const NodeId top_left = nodes.front();
  const std::uint32_t x0 = grid.x_of(top_left), y0 = grid.y_of(top_left);
  for (std::uint32_t i = 0; i < a; ++i) {
    EXPECT_TRUE(mt.has_edge(grid.id(x0 + i, y0), grid.id(x0 + i, y0 + a - 1)));
    EXPECT_TRUE(mt.has_edge(grid.id(x0, y0 + i), grid.id(x0 + a - 1, y0 + i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MultitorusSweep,
                         ::testing::Values(std::pair{16u, 4u}, std::pair{64u, 4u},
                                           std::pair{144u, 4u}, std::pair{144u, 6u},
                                           std::pair{256u, 8u}));

TEST(Multitorus, RejectsBadShapes) {
  EXPECT_THROW(make_multitorus(15, 4), std::invalid_argument);   // not square
  EXPECT_THROW(make_multitorus(16, 3), std::invalid_argument);   // side % a != 0
  EXPECT_THROW(make_multitorus(16, 0), std::invalid_argument);
}

class ButterflySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ButterflySweep, UnwrappedInvariants) {
  const std::uint32_t d = GetParam();
  const Graph bf = make_butterfly(d);
  const ButterflyLayout layout{d, false};
  EXPECT_EQ(bf.num_nodes(), (d + 1) << d);
  EXPECT_EQ(bf.num_edges(), static_cast<std::uint64_t>(d) << (d + 1));
  EXPECT_TRUE(is_connected(bf));
  EXPECT_LE(bf.max_degree(), 4u);
  // Spot-check edge structure: straight and cross edges at level 0.
  EXPECT_TRUE(bf.has_edge(layout.id(0, 0), layout.id(1, 0)));
  EXPECT_TRUE(bf.has_edge(layout.id(0, 0), layout.id(1, 1)));
  // Diameter ~ 2d.
  EXPECT_GE(diameter(bf), d);
  EXPECT_LE(diameter(bf), 2 * d + 2);
}

TEST_P(ButterflySweep, WrappedIsFourRegular) {
  const std::uint32_t d = GetParam();
  if (d < 3) GTEST_SKIP() << "wrapped butterfly needs d >= 3 for 4-regularity";
  const Graph wbf = make_wrapped_butterfly(d);
  EXPECT_EQ(wbf.num_nodes(), d << d);
  std::uint32_t degree = 0;
  EXPECT_TRUE(is_regular(wbf, &degree));
  EXPECT_EQ(degree, 4u);
  EXPECT_TRUE(is_connected(wbf));
}

INSTANTIATE_TEST_SUITE_P(Dims, ButterflySweep, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(Butterfly, DimensionForSize) {
  EXPECT_EQ(butterfly_dimension_for_size(3), 0u);
  EXPECT_EQ(butterfly_dimension_for_size(4), 1u);   // 2*2 = 4
  EXPECT_EQ(butterfly_dimension_for_size(191), 4u); // 5*16=80 fits, 6*32=192 not
  EXPECT_EQ(butterfly_dimension_for_size(192), 5u);
}

TEST(Hypercube, Invariants) {
  const Graph h = make_hypercube(4);
  EXPECT_EQ(h.num_nodes(), 16u);
  std::uint32_t degree = 0;
  EXPECT_TRUE(is_regular(h, &degree));
  EXPECT_EQ(degree, 4u);
  EXPECT_EQ(diameter(h), 4u);
}

TEST(Ccc, Invariants) {
  const Graph ccc = make_cube_connected_cycles(3);
  EXPECT_EQ(ccc.num_nodes(), 24u);
  std::uint32_t degree = 0;
  EXPECT_TRUE(is_regular(ccc, &degree));
  EXPECT_EQ(degree, 3u);
  EXPECT_TRUE(is_connected(ccc));
}

TEST(ShuffleExchange, Invariants) {
  const Graph se = make_shuffle_exchange(4);
  EXPECT_EQ(se.num_nodes(), 16u);
  EXPECT_TRUE(is_connected(se));
  EXPECT_LE(se.max_degree(), 3u);
  EXPECT_EQ(shuffle_word(0b0110, 4), 0b1100u);
  EXPECT_EQ(shuffle_word(0b1000, 4), 0b0001u);
}

TEST(DeBruijn, Invariants) {
  const Graph db = make_debruijn(4);
  EXPECT_EQ(db.num_nodes(), 16u);
  EXPECT_TRUE(is_connected(db));
  EXPECT_LE(db.max_degree(), 4u);
  EXPECT_LE(diameter(db), 4u);  // de Bruijn diameter == d
}

class RandomRegularSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(RandomRegularSweep, ExactlyRegularAndSimple) {
  const auto [n, c] = GetParam();
  Rng rng{1234 + n + c};
  const Graph g = make_random_regular(n, c, rng);
  EXPECT_EQ(g.num_nodes(), n);
  std::uint32_t degree = 0;
  EXPECT_TRUE(is_regular(g, &degree));
  EXPECT_EQ(degree, c);
  EXPECT_EQ(g.num_edges(), static_cast<std::uint64_t>(n) * c / 2);  // simple: no lost edges
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomRegularSweep,
                         ::testing::Values(std::pair{16u, 3u}, std::pair{64u, 4u},
                                           std::pair{100u, 16u}, std::pair{256u, 16u},
                                           std::pair{50u, 7u}));

TEST(RandomRegular, RejectsInfeasible) {
  Rng rng{1};
  EXPECT_THROW(make_random_regular(5, 3, rng), std::invalid_argument);   // odd product
  EXPECT_THROW(make_random_regular(4, 4, rng), std::invalid_argument);   // c >= n
}

TEST(Circulant, Structure) {
  const Graph c = make_circulant(10, 4);
  std::uint32_t degree = 0;
  EXPECT_TRUE(is_regular(c, &degree));
  EXPECT_EQ(degree, 4u);
  EXPECT_TRUE(c.has_edge(0, 1));
  EXPECT_TRUE(c.has_edge(0, 2));
  EXPECT_TRUE(c.has_edge(0, 8));
  EXPECT_FALSE(c.has_edge(0, 3));
}

TEST(PlantedSubgraph, ContainsBaseAndBoundsDegree) {
  Rng rng{77};
  const Graph base = make_torus(6, 6);
  const Graph g = make_random_regular_with_subgraph(base, 16, rng);
  for (const auto& [u, v] : base.edge_list()) EXPECT_TRUE(g.has_edge(u, v));
  EXPECT_LE(g.max_degree(), 16u);
  EXPECT_GT(g.num_edges(), base.num_edges());
}

TEST(Properties, BfsAndEccentricity) {
  const Graph p = make_path(6);
  const auto dist = bfs_distances(p, 0);
  EXPECT_EQ(dist[5], 5u);
  EXPECT_EQ(eccentricity(p, 2), 3u);
}

TEST(Properties, DisconnectedGraphDetected) {
  GraphBuilder builder{4};
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  const Graph g = std::move(builder).build();
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(diameter(g), kUnreachable);
  EXPECT_EQ(bfs_distances(g, 0)[2], kUnreachable);
}

TEST(Properties, SampledDiameterIsLowerBound) {
  const Graph t = make_torus(8, 8);
  const std::uint32_t exact = diameter(t);
  const std::uint32_t sampled = sampled_diameter(t, 10);
  EXPECT_LE(sampled, exact);
  EXPECT_GE(sampled, exact / 2);
}

}  // namespace
}  // namespace upn
