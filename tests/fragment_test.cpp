// Fragment extraction (Definition 3.2) and multiplicity bound (Lemma 3.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/pebble/fragment.hpp"
#include "src/pebble/metrics.hpp"
#include "src/pebble/protocol.hpp"

namespace upn {
namespace {

/// Triangle guest on 2-node host, T = 2 (same fixture as metrics_test).
Protocol sample_protocol() {
  Protocol protocol{3, 2, 2};
  auto gen = [&](std::uint32_t proc, NodeId i, std::uint32_t t) {
    protocol.add_step({{Op{OpKind::kGenerate, proc, PebbleType{i, t}, 0}}});
  };
  auto transfer = [&](std::uint32_t from, std::uint32_t to, NodeId i, std::uint32_t t) {
    protocol.add_step({{Op{OpKind::kSend, from, PebbleType{i, t}, to},
                        Op{OpKind::kReceive, to, PebbleType{i, t}, from}}});
  };
  gen(0, 0, 1);
  gen(0, 1, 1);
  gen(0, 2, 1);
  transfer(0, 1, 0, 1);
  transfer(0, 1, 1, 1);
  transfer(0, 1, 2, 1);
  gen(1, 0, 2);
  gen(1, 1, 2);
  gen(0, 2, 2);
  return protocol;
}

TEST(Fragment, ExtractAtTimeOne) {
  const ProtocolMetrics metrics{sample_protocol()};
  const Fragment fragment = extract_fragment(metrics, 1);
  ASSERT_EQ(fragment.num_guests(), 3u);
  // B_i = representatives at t0 = 1: {0, 1} for all i.
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::ranges::equal(fragment.B(i), std::vector<std::uint32_t>{0, 1}));
  }
  // b_i must be a generator of (P_i, 2): Q1 for P0/P1, Q0 for P2.
  EXPECT_EQ(fragment.b(0), 1u);
  EXPECT_EQ(fragment.b(1), 1u);
  EXPECT_EQ(fragment.b(2), 0u);
  // D_i = all guests (both processors hold everything at t0 = 1).
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::ranges::equal(fragment.D(i), std::vector<std::uint32_t>{0, 1, 2}));
  }
  EXPECT_EQ(fragment.total_b_size(), 6u);
}

TEST(Fragment, ExtractAtTimeZero) {
  const ProtocolMetrics metrics{sample_protocol()};
  const Fragment fragment = extract_fragment(metrics, 0);
  // At t0 = 0 every processor holds every initial pebble: |B_i| = 2.
  EXPECT_EQ(fragment.total_b_size(), 6u);
  // b_i must generate (P_i, 1): all generated at Q0.
  for (NodeId i = 0; i < 3; ++i) EXPECT_EQ(fragment.b(i), 0u);
}

TEST(Fragment, MissingGeneratorThrows) {
  Protocol protocol{2, 1, 2};
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}}});
  const ProtocolMetrics metrics{protocol};
  EXPECT_THROW((void)extract_fragment(metrics, 0), std::invalid_argument);
  EXPECT_THROW((void)extract_fragment(metrics, 2), std::out_of_range);
}

TEST(Fragment, MultiplicityBoundMatchesLemma33) {
  const ProtocolMetrics metrics{sample_protocol()};
  const Fragment fragment = extract_fragment(metrics, 1);
  // |D_i| = 3 for all i; with c = 2: bound = prod C(3, 1) = 27.
  EXPECT_NEAR(log2_multiplicity_bound(fragment, 2), std::log2(27.0), 1e-9);
  // c = 4: C(3, 2)^3 = 27.
  EXPECT_NEAR(log2_multiplicity_bound(fragment, 4), std::log2(27.0), 1e-9);
  // c = 16: c/2 = 8 > |D_i| -> impossible, -inf.
  EXPECT_EQ(log2_multiplicity_bound(fragment, 16),
            -std::numeric_limits<double>::infinity());
}

TEST(Fragment, CountSmallD) {
  const ProtocolMetrics metrics{sample_protocol()};
  const Fragment fragment = extract_fragment(metrics, 1);
  EXPECT_EQ(count_small_d(fragment, 3.0), 3u);
  EXPECT_EQ(count_small_d(fragment, 2.9), 0u);
}

}  // namespace
}  // namespace upn
