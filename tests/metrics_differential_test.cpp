// Differential test of the bit-row ProtocolMetrics builder against the
// preserved counting-and-sort builder (tests/support/reference_metrics.hpp):
// on every protocol of the validator differential corpus that validates (and
// on every parsed fuzz text whose pebbles are in range), on
// emitted protocols at m = 1, 12, 63, 64, 65 and 192 (one, partial and
// several 64-bit words per row), and on hand-built protocols where one
// processor places or generates the same pebble twice or receives an
// initial pebble, every query must answer the same.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/pebble/io.hpp"
#include "src/pebble/metrics.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "tests/support/protocol_corpus.hpp"
#include "tests/support/reference_metrics.hpp"

namespace upn {
namespace {

/// Asserts that every query of both builders agrees on `protocol`.
void expect_same_metrics(const Protocol& protocol) {
  const ProtocolMetrics fast{protocol};
  const testing::ReferenceProtocolMetrics reference{protocol};
  const std::uint32_t n = protocol.num_guests();
  const std::uint32_t T = protocol.guest_steps();
  EXPECT_EQ(fast.total_placements(), reference.total_placements());
  for (std::uint32_t t = 0; t <= T; ++t) {
    EXPECT_EQ(fast.total_weight_at(t), reference.total_weight_at(t)) << "t=" << t;
    for (NodeId i = 0; i < n; ++i) {
      EXPECT_EQ(fast.representatives(i, t), reference.representatives(i, t))
          << "i=" << i << " t=" << t;
      EXPECT_EQ(fast.weight(i, t), reference.weight(i, t)) << "i=" << i << " t=" << t;
      EXPECT_EQ(fast.first_generation_step(i, t), reference.first_generation_step(i, t))
          << "i=" << i << " t=" << t;
      if (t < T) {
        EXPECT_EQ(fast.generators(i, t), reference.generators(i, t)) << "i=" << i << " t=" << t;
      }
    }
  }
}

/// Compares the metrics of `protocol` when it is legal on (guest, host);
/// returns whether it was.
bool expect_same_metrics_if_valid(const Protocol& protocol, const Graph& guest,
                                  const Graph& host) {
  if (!validate_protocol(protocol, guest, host).ok) return false;
  expect_same_metrics(protocol);
  return true;
}

// ---- the validator differential corpus -------------------------------------

TEST(MetricsDifferential, MutationCorpusOnTheUniversalProtocol) {
  const testing::Emitted e = testing::mutation_corpus_protocol();
  ASSERT_TRUE(expect_same_metrics_if_valid(e.protocol, e.guest, e.host));
  for (std::size_t target = 0; target < e.protocol.num_ops(); ++target) {
    for (const Protocol& mutant : testing::universal_mutants(e, target)) {
      expect_same_metrics_if_valid(mutant, e.guest, e.host);
    }
  }
}

TEST(MetricsDifferential, MutationCorpusOnTheSelfHealingProtocol) {
  const testing::SelfHealing healing = testing::self_healing_protocol();
  const testing::Emitted& e = healing.emitted;
  ASSERT_TRUE(expect_same_metrics_if_valid(e.protocol, e.guest, e.host));
  std::size_t compared = 0;
  for (std::size_t target = 0; target < e.protocol.num_ops(); ++target) {
    for (const testing::HostedMutant& mutant : testing::self_healing_mutants(healing, target)) {
      for (const Graph* host : mutant.hosts) {
        if (expect_same_metrics_if_valid(mutant.protocol, e.guest, *host)) ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0u) << "a lost receive that a retransmission covers stays legal";
}

/// True iff every pebble names a guest below n and a time up to T: the
/// protocols both builders can index, valid or not.
bool pebbles_in_range(const Protocol& protocol) {
  for (const Op& op : testing::flat_ops(protocol)) {
    if (op.pebble.node >= protocol.num_guests() || op.pebble.time > protocol.guest_steps()) {
      return false;
    }
  }
  return true;
}

TEST(MetricsDifferential, PebbleIoFuzzCorpus) {
  // No fuzz text validates (none generates every final pebble), so compare
  // on every parsed protocol the builders can index.  A generate of a
  // time-0 pebble must make both throw.
  std::size_t compared = 0, thrown = 0;
  for (const std::string& text : testing::pebble_io_fuzz_texts()) {
    std::stringstream buffer{text};
    Protocol protocol{1, 1, 1};
    try {
      protocol = read_protocol(buffer);
    } catch (const std::runtime_error&) {
      continue;
    }
    if (protocol.num_guests() > 64 || protocol.num_hosts() > 64 ||
        protocol.guest_steps() > 64 || !pebbles_in_range(protocol)) {
      continue;
    }
    bool fast_threw = false, reference_threw = false;
    try {
      static_cast<void>(ProtocolMetrics{protocol});
    } catch (const std::out_of_range&) {
      fast_threw = true;
    }
    try {
      static_cast<void>(testing::ReferenceProtocolMetrics{protocol});
    } catch (const std::out_of_range&) {
      reference_threw = true;
    }
    EXPECT_EQ(fast_threw, reference_threw) << text;
    if (fast_threw) {
      ++thrown;
    } else {
      expect_same_metrics(protocol);
      ++compared;
    }
  }
  EXPECT_GT(compared, 100u);
  EXPECT_GT(thrown, 0u);
}

TEST(MetricsDifferential, RandomMutationsOfEmittedProtocols) {
  std::size_t compared = 0;
  for (const testing::MutationSize& size : testing::kRandomMutationSizes) {
    const testing::Emitted e = testing::random_mutation_base(size);
    ASSERT_TRUE(expect_same_metrics_if_valid(e.protocol, e.guest, e.host));
    testing::for_each_random_mutant(e, size, [&](const Protocol& mutant) {
      if (expect_same_metrics_if_valid(mutant, e.guest, e.host)) ++compared;
    });
  }
  EXPECT_GT(compared, 0u);
}

// ---- emitted protocols across row widths -----------------------------------

TEST(MetricsDifferential, EmittedProtocolsAtEveryRowWidth) {
  const std::pair<std::uint32_t, Graph> hosts[] = {
      {8, make_path(1)},        {24, make_butterfly(2)}, {126, make_cycle(63)},
      {128, make_cycle(64)},    {130, make_cycle(65)},   {384, make_butterfly(5)}};
  for (const auto& [n, host] : hosts) {
    const testing::Emitted e = testing::emit_universal(n, 4, host, 3, 5 + n);
    ASSERT_EQ(e.protocol.num_hosts(), host.num_nodes());
    ASSERT_TRUE(expect_same_metrics_if_valid(e.protocol, e.guest, e.host)) << host.name();
  }
}

// ---- one processor placing the same pebble twice ----------------------------

TEST(MetricsDifferential, RepeatedPlacementsCountOnceInTheSets) {
  // Triangle guest on a 2-node path host, T = 1.
  Protocol protocol{3, 2, 1};
  auto gen = [&](std::uint32_t proc, NodeId i) {
    protocol.add_step({{Op{OpKind::kGenerate, proc, PebbleType{i, 1}, 0}}});
  };
  auto transfer = [&](std::uint32_t from, std::uint32_t to, NodeId i) {
    protocol.add_step({{Op{OpKind::kSend, from, PebbleType{i, 1}, to},
                        Op{OpKind::kReceive, to, PebbleType{i, 1}, from}}});
  };
  gen(0, 0);
  transfer(0, 1, 0);  // Q1 receives (P0,1) ...
  transfer(0, 1, 0);  // ... twice
  gen(0, 0);          // Q0 generates (P0,1) a second time
  gen(1, 1);
  transfer(1, 0, 1);  // Q0 receives (P1,1) ...
  gen(0, 1);          // ... and also generates it
  gen(1, 2);
  gen(1, 2);          // Q1 generates (P2,1) twice in a row
  const Graph guest = make_cycle(3);
  const Graph host = make_path(2);
  ASSERT_TRUE(expect_same_metrics_if_valid(protocol, guest, host));

  const ProtocolMetrics metrics{protocol};
  EXPECT_EQ(metrics.representatives(0, 1), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(metrics.generators(0, 0), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(metrics.representatives(1, 1), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(metrics.generators(1, 0), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(metrics.weight(2, 1), 1u);
  EXPECT_EQ(metrics.first_generation_step(0, 1), 1u);
  EXPECT_EQ(metrics.first_generation_step(2, 1), 8u);
  // Every generate and receive of a non-initial pebble is one placement.
  EXPECT_EQ(metrics.total_placements(), 9u);
}

// ---- generator sets from the generate ops alone ----------------------------

TEST(MetricsDifferential, OneProcessorGeneratingOnePebbleTwiceIsOneGenerator) {
  // Path guest 0-1 on a 3-node path host, T = 1.  Q2 generates (P0, 1),
  // then Q0, then Q2 again: Q2's two generates are not adjacent in op
  // order, so only a dedup after sorting by processor leaves {0, 2}.
  Protocol protocol{2, 3, 1};
  auto gen = [&](std::uint32_t proc, NodeId i) {
    protocol.add_step({{Op{OpKind::kGenerate, proc, PebbleType{i, 1}, 0}}});
  };
  gen(2, 0);
  gen(0, 0);
  gen(2, 0);
  gen(1, 1);
  const Graph guest = make_path(2);
  const Graph host = make_path(3);
  ASSERT_TRUE(expect_same_metrics_if_valid(protocol, guest, host));

  const ProtocolMetrics metrics{protocol};
  EXPECT_EQ(metrics.generators(0, 0), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(metrics.representatives(0, 1), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(metrics.weight(0, 1), 2u);
  EXPECT_EQ(metrics.first_generation_step(0, 1), 1u);
  EXPECT_EQ(metrics.total_placements(), 4u);
}

TEST(MetricsDifferential, ReceivedInitialPebbleIsNoPlacement) {
  // Path guest 0-1 on a 2-node path host, T = 1.  Q1 receives P0's initial
  // pebble (P0, 0) at the first step; that sets no holder row, no generator
  // and no placement.
  Protocol protocol{2, 2, 1};
  protocol.add_step({{Op{OpKind::kSend, 0, PebbleType{0, 0}, 1},
                      Op{OpKind::kReceive, 1, PebbleType{0, 0}, 0}}});
  protocol.add_step({{Op{OpKind::kGenerate, 1, PebbleType{0, 1}, 0},
                      Op{OpKind::kGenerate, 0, PebbleType{1, 1}, 0}}});
  const Graph guest = make_path(2);
  const Graph host = make_path(2);
  ASSERT_TRUE(expect_same_metrics_if_valid(protocol, guest, host));

  const ProtocolMetrics metrics{protocol};
  EXPECT_EQ(metrics.representatives(0, 0), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(metrics.representatives(0, 1), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(metrics.generators(0, 0), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(metrics.first_generation_step(0, 1), 2u);
  EXPECT_EQ(metrics.total_placements(), 2u);
}

}  // namespace
}  // namespace upn
