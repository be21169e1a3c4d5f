// Unit tests for the CSR Graph and GraphBuilder.
#include <gtest/gtest.h>

#include "src/topology/graph.hpp"

namespace upn {
namespace {

TEST(GraphBuilder, BuildsTriangle) {
  GraphBuilder builder{3, "triangle"};
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 0);
  const Graph g = std::move(builder).build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.name(), "triangle");
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder builder{2};
  builder.add_edge(0, 1);
  builder.add_edge(1, 0);  // duplicate, reversed
  builder.add_edge(0, 0);  // self-loop dropped
  const Graph g = std::move(builder).build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder builder{2};
  EXPECT_THROW(builder.add_edge(0, 2), std::out_of_range);
}

TEST(Graph, NeighborsAreSorted) {
  GraphBuilder builder{5};
  builder.add_edge(2, 4);
  builder.add_edge(2, 0);
  builder.add_edge(2, 3);
  builder.add_edge(2, 1);
  const Graph g = std::move(builder).build();
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, EdgeListIsCanonical) {
  GraphBuilder builder{4};
  builder.add_edge(3, 1);
  builder.add_edge(0, 2);
  const Graph g = std::move(builder).build();
  const auto edges = g.edge_list();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<NodeId, NodeId>{0, 2}));
  EXPECT_EQ(edges[1], (std::pair<NodeId, NodeId>{1, 3}));
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, IsolatedNodes) {
  GraphBuilder builder{4};
  builder.add_edge(0, 1);
  const Graph g = std::move(builder).build();
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(GraphOps, UnionMergesEdgeSets) {
  GraphBuilder a{3};
  a.add_edge(0, 1);
  GraphBuilder b{3};
  b.add_edge(1, 2);
  b.add_edge(0, 1);  // shared edge
  const Graph u = graph_union(std::move(a).build(), std::move(b).build(), "u");
  EXPECT_EQ(u.num_edges(), 2u);
  EXPECT_TRUE(u.has_edge(0, 1));
  EXPECT_TRUE(u.has_edge(1, 2));
}

TEST(GraphOps, UnionRejectsSizeMismatch) {
  GraphBuilder a{3};
  GraphBuilder b{4};
  EXPECT_THROW(graph_union(std::move(a).build(), std::move(b).build(), "x"),
               std::invalid_argument);
}

}  // namespace
}  // namespace upn
