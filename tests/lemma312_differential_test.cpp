// Differential test of verify_lemma312, which builds one canonical
// dependency tree and reads every tree weight from one table, against the
// preserved tree-per-root verifier (tests/support/reference_lemma312.hpp):
// on every protocol of the lower-bound corpus (pipeline_test's configs,
// lemma_verify_test's fixture, seeded protocols with a = 2 and a = 3) every
// Lemma312Report field must be equal, doubles bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "src/lowerbound/dependency_tree.hpp"
#include "src/lowerbound/lemma_verify.hpp"
#include "src/pebble/metrics.hpp"
#include "tests/support/protocol_corpus.hpp"
#include "tests/support/reference_lemma312.hpp"

namespace upn {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_report(const Lemma312Report& fast, const Lemma312Report& reference) {
  EXPECT_EQ(fast.tree_depth, reference.tree_depth);
  EXPECT_EQ(bits(fast.inefficiency), bits(reference.inefficiency));
  EXPECT_EQ(fast.z_set, reference.z_set);
  EXPECT_EQ(fast.z_large_enough, reference.z_large_enough);
  EXPECT_EQ(bits(fast.max_sum_q), bits(reference.max_sum_q));
  EXPECT_EQ(bits(fast.bound_sum_q), bits(reference.bound_sum_q));
  EXPECT_EQ(fast.sum_q_ok, reference.sum_q_ok);
  ASSERT_EQ(fast.choices.size(), reference.choices.size());
  for (std::size_t c = 0; c < fast.choices.size(); ++c) {
    const Lemma312Choice& x = fast.choices[c];
    const Lemma312Choice& y = reference.choices[c];
    SCOPED_TRACE("t0 = " + std::to_string(y.t0));
    EXPECT_EQ(x.t0, y.t0);
    EXPECT_EQ(x.roots, y.roots);
    EXPECT_EQ(x.sum_root_weights, y.sum_root_weights);
    EXPECT_EQ(x.sum_tree_weights, y.sum_tree_weights);
    EXPECT_EQ(bits(x.bound_roots), bits(y.bound_roots));
    EXPECT_EQ(bits(x.bound_trees), bits(y.bound_trees));
    EXPECT_EQ(bits(x.paper_bound_roots), bits(y.paper_bound_roots));
    EXPECT_EQ(bits(x.paper_bound_trees), bits(y.paper_bound_trees));
    EXPECT_EQ(x.roots_ok, y.roots_ok);
    EXPECT_EQ(x.trees_ok, y.trees_ok);
  }
}

TEST(Lemma312Differential, EveryReportFieldEqualsTheTreePerRootVerifier) {
  std::size_t compared = 0, a3 = 0;
  for (const testing::PlantedProtocol& planted : testing::lowerbound_corpus()) {
    SCOPED_TRACE(planted.name);
    const ProtocolMetrics metrics{planted.protocol};
    expect_same_report(verify_lemma312(metrics, planted.g0),
                       testing::reference_verify_lemma312(metrics, planted.g0));
    ++compared;
    if (planted.g0.a == 3) ++a3;
  }
  EXPECT_GE(compared, 16u);
  EXPECT_GE(a3, 7u);
}

TEST(Lemma312Differential, BothRejectTheSameInputs) {
  // A horizon no longer than the tree depth, and a G_0 of another size.
  const testing::PlantedProtocol planted = testing::pipeline_protocol(PipelineConfig{});
  PipelineConfig config;
  config.guest_steps = canonical_dependency_tree(planted.g0.layout).depth;
  const testing::PlantedProtocol short_run = testing::pipeline_protocol(config);
  const ProtocolMetrics short_metrics{short_run.protocol};
  EXPECT_THROW((void)verify_lemma312(short_metrics, short_run.g0), std::invalid_argument);
  EXPECT_THROW((void)testing::reference_verify_lemma312(short_metrics, short_run.g0),
               std::invalid_argument);

  const testing::PlantedProtocol other = testing::pipeline_protocol(PipelineConfig{144, 2, 16, 1});
  const ProtocolMetrics metrics{planted.protocol};
  EXPECT_THROW((void)verify_lemma312(metrics, other.g0), std::invalid_argument);
  EXPECT_THROW((void)testing::reference_verify_lemma312(metrics, other.g0),
               std::invalid_argument);
}

TEST(Lemma312Differential, CanonicalTreeTranslatesToEveryRootsTree) {
  // Every (block, root) tree is the canonical tree with each node moved by
  // the root's canonical_shift: same times, same parents, same size.
  for (const std::uint32_t a : {2u, 3u}) {
    const MultitorusLayout layout = multitorus_layout(16 * a * a * 4, 2 * a);
    const DependencyTree canonical = canonical_dependency_tree(layout);
    const std::uint32_t side = layout.block_side;
    for (std::uint32_t block = 0; block < layout.num_blocks(); ++block) {
      const std::vector<NodeId> nodes = layout.block_nodes(block);
      for (const NodeId root : nodes) {
        const DependencyTree tree = build_block_dependency_tree(layout, block, root);
        const BlockShift shift = canonical_shift(layout, root);
        ASSERT_EQ(tree.size(), canonical.size());
        ASSERT_EQ(tree.depth, canonical.depth);
        ASSERT_EQ(tree.leaves, canonical.leaves);
        for (std::size_t k = 0; k < tree.size(); ++k) {
          const auto [x, y] = layout.local_coords(canonical.nodes[k].vertex);
          EXPECT_EQ(tree.nodes[k].vertex,
                    nodes[(y + shift.dy) % side * side + (x + shift.dx) % side]);
          EXPECT_EQ(tree.nodes[k].time, canonical.nodes[k].time);
          EXPECT_EQ(tree.nodes[k].parent, canonical.nodes[k].parent);
        }
      }
    }
  }
}

}  // namespace
}  // namespace upn
