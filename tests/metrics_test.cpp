// ProtocolMetrics tests: Q_S, weights, generators, E_t(tau).
#include <gtest/gtest.h>

#include "src/pebble/metrics.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"

namespace upn {
namespace {

/// A tiny hand-built valid protocol: triangle guest on a 2-node host, T=2.
Protocol sample_protocol() {
  Protocol protocol{3, 2, 2};
  auto gen = [&](std::uint32_t proc, NodeId i, std::uint32_t t) {
    protocol.add_step({{Op{OpKind::kGenerate, proc, PebbleType{i, t}, 0}}});
  };
  auto transfer = [&](std::uint32_t from, std::uint32_t to, NodeId i, std::uint32_t t) {
    protocol.add_step({{Op{OpKind::kSend, from, PebbleType{i, t}, to},
                        Op{OpKind::kReceive, to, PebbleType{i, t}, from}}});
  };
  gen(0, 0, 1);        // step 1
  gen(0, 1, 1);        // step 2
  gen(0, 2, 1);        // step 3
  transfer(0, 1, 0, 1);  // step 4
  transfer(0, 1, 1, 1);  // step 5
  transfer(0, 1, 2, 1);  // step 6
  gen(1, 0, 2);        // step 7
  gen(1, 1, 2);        // step 8
  gen(0, 2, 2);        // step 9 (Q0 also holds everything)
  return protocol;
}

TEST(Metrics, ProtocolIsValidFixture) {
  const Protocol protocol = sample_protocol();
  EXPECT_TRUE(validate_protocol(protocol, make_cycle(3), make_path(2)).ok);
}

TEST(Metrics, RepresentativesAndWeights) {
  const ProtocolMetrics metrics{sample_protocol()};
  // Time 0: initial pebbles everywhere.
  EXPECT_EQ(metrics.weight(0, 0), 2u);
  EXPECT_EQ(metrics.representatives(1, 0), (std::vector<std::uint32_t>{0, 1}));
  // (P0,1): generated at Q0, copied to Q1.
  EXPECT_EQ(metrics.representatives(0, 1), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(metrics.weight(0, 1), 2u);
  // (P0,2): generated at Q1 only.
  EXPECT_EQ(metrics.representatives(0, 2), (std::vector<std::uint32_t>{1}));
  // (P2,2): generated at Q0 only.
  EXPECT_EQ(metrics.representatives(2, 2), (std::vector<std::uint32_t>{0}));
}

TEST(Metrics, Generators) {
  const ProtocolMetrics metrics{sample_protocol()};
  // Generators of (P_i, 1) pebbles sit at guest time 0.
  EXPECT_EQ(metrics.generators(0, 0), (std::vector<std::uint32_t>{0}));
  // Generators of (P0, 2): Q1.
  EXPECT_EQ(metrics.generators(0, 1), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(metrics.generators(2, 1), (std::vector<std::uint32_t>{0}));
}

TEST(Metrics, FirstGenerationAndEt) {
  const ProtocolMetrics metrics{sample_protocol()};
  EXPECT_EQ(metrics.first_generation_step(0, 1), 1u);
  EXPECT_EQ(metrics.first_generation_step(1, 1), 2u);
  EXPECT_EQ(metrics.first_generation_step(2, 1), 3u);
  EXPECT_EQ(metrics.first_generation_step(0, 2), 7u);
  // So E_1(tau) (Definition 3.16), the i with first_generation_step(i, 1)
  // <= tau, has 0 members at tau = 0, 1 at tau = 1 and 3 at tau = 3; and
  // E_0(0) = n, since every initial pebble exists from the start.
  for (NodeId i = 0; i < 3; ++i) EXPECT_EQ(metrics.first_generation_step(i, 0), 0u) << i;
}

TEST(Metrics, TotalsAndInefficiency) {
  const ProtocolMetrics metrics{sample_protocol()};
  EXPECT_EQ(metrics.guest_steps(), 2u);
  EXPECT_EQ(metrics.host_steps(), 9u);
  // k = T' m / (T n) = 9*2/(2*3) = 3.
  EXPECT_DOUBLE_EQ(metrics.inefficiency(), 3.0);
  EXPECT_EQ(metrics.total_weight_at(1), 6u);  // all three 1-pebbles at both procs
  EXPECT_EQ(metrics.total_weight_at(2), 3u);
  // placements: 6 generates + 3 receives.
  EXPECT_EQ(metrics.total_placements(), 9u);
}

TEST(Metrics, NeverGeneratedSentinel) {
  Protocol protocol{2, 1, 2};
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}}});
  const ProtocolMetrics metrics{protocol};
  EXPECT_EQ(metrics.first_generation_step(1, 1), kNeverGenerated);
  EXPECT_EQ(metrics.weight(1, 1), 0u);
}

TEST(Metrics, OutOfRangeThrows) {
  const ProtocolMetrics metrics{sample_protocol()};
  EXPECT_THROW((void)metrics.weight(0, 3), std::out_of_range);
  EXPECT_THROW((void)metrics.generators(0, 2), std::out_of_range);
  EXPECT_THROW((void)metrics.representatives(3, 1), std::out_of_range);
  // t = 0 range-checks the guest index like every other t.
  EXPECT_THROW((void)metrics.weight(3, 0), std::out_of_range);
  EXPECT_THROW((void)metrics.representatives(3, 0), std::out_of_range);
  EXPECT_THROW((void)metrics.first_generation_step(3, 0), std::out_of_range);
}

}  // namespace
}  // namespace upn
