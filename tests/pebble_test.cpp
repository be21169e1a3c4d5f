// Pebble-game protocol and validator tests: the Section 3.1 rules, enforced.
#include <gtest/gtest.h>

#include "src/pebble/protocol.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"

namespace upn {
namespace {

// Guest: triangle P0-P1-P2.  Host: edge Q0-Q1.
Graph triangle() { return make_cycle(3); }
Graph host_edge() { return make_path(2); }

TEST(Protocol, TracksBasicCounters) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  EXPECT_EQ(protocol.host_steps(), 1u);
  EXPECT_EQ(protocol.num_ops(), 1u);
  EXPECT_DOUBLE_EQ(protocol.slowdown(), 1.0);
  EXPECT_DOUBLE_EQ(protocol.inefficiency(), 1.0 * 2 / 3);
}

TEST(Protocol, RejectsTwoOpsSameProcessorSameStep) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  EXPECT_THROW(protocol.add(Op{OpKind::kGenerate, 0, PebbleType{1, 1}, 0}), std::logic_error);
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{1, 1}, 0});  // fine next step
}

TEST(Protocol, RejectsOutOfRange) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  EXPECT_THROW(protocol.add(Op{OpKind::kGenerate, 2, PebbleType{0, 1}, 0}),
               std::out_of_range);
  EXPECT_THROW(protocol.add(Op{OpKind::kGenerate, 0, PebbleType{3, 1}, 0}),
               std::out_of_range);
  EXPECT_THROW(protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 2}, 0}),
               std::out_of_range);
}

TEST(Protocol, AddBeforeBeginStepThrows) {
  Protocol protocol{3, 2, 1};
  EXPECT_THROW(protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}), std::logic_error);
}

TEST(Validator, AcceptsMinimalCompleteSimulation) {
  // T = 1: every processor holds all (P_i, 0); generating (P_i, 1) needs
  // only initial pebbles.  Generate all three finals on Q0 over 3 steps.
  Protocol protocol{3, 2, 1};
  for (NodeId i = 0; i < 3; ++i) {
    protocol.begin_step();
    protocol.add(Op{OpKind::kGenerate, 0, PebbleType{i, 1}, 0});
  }
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.pebbles_generated, 3u);
}

TEST(Validator, RejectsMissingFinalPebble) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("final pebble"), std::string::npos);
}

TEST(Validator, RejectsGenerateWithoutPredecessors) {
  // T = 2: generating (P0, 2) requires (P0,1), (P1,1), (P2,1) at the proc.
  Protocol protocol{3, 2, 2};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 2}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("predecessor"), std::string::npos);
}

TEST(Validator, SendReceiveMovesPebbles) {
  // Q0 generates (P0,1).. then sends it to Q1; Q1 generates (P0,2) after
  // also getting (P1,1),(P2,1).
  Protocol protocol{3, 2, 2};
  auto gen = [&](std::uint32_t proc, NodeId i, std::uint32_t t) {
    protocol.begin_step();
    protocol.add(Op{OpKind::kGenerate, proc, PebbleType{i, t}, 0});
  };
  auto transfer = [&](std::uint32_t from, std::uint32_t to, NodeId i, std::uint32_t t) {
    protocol.begin_step();
    protocol.add(Op{OpKind::kSend, from, PebbleType{i, t}, to});
    protocol.add(Op{OpKind::kReceive, to, PebbleType{i, t}, from});
  };
  gen(0, 0, 1);
  gen(0, 1, 1);
  gen(0, 2, 1);
  transfer(0, 1, 0, 1);
  transfer(0, 1, 1, 1);
  transfer(0, 1, 2, 1);
  gen(1, 0, 2);
  gen(1, 1, 2);
  gen(1, 2, 2);
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.pebbles_sent, 3u);
}

TEST(Validator, RejectsSendOfUnheldPebble) {
  Protocol protocol{3, 2, 2};
  protocol.begin_step();
  protocol.add(Op{OpKind::kSend, 0, PebbleType{0, 1}, 1});  // (P0,1) never generated
  protocol.add(Op{OpKind::kReceive, 1, PebbleType{0, 1}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("does not hold"), std::string::npos);
}

TEST(Validator, RejectsReceiveWithoutMatchingSend) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kReceive, 1, PebbleType{0, 0}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("matching send"), std::string::npos);
}

TEST(Validator, RejectsSendToNonNeighbor) {
  // Host path(3): Q0-Q1-Q2; Q0 -> Q2 is not an edge.
  Protocol protocol{3, 3, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kSend, 0, PebbleType{0, 0}, 2});
  protocol.add(Op{OpKind::kReceive, 2, PebbleType{0, 0}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), make_path(3));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("neighbor"), std::string::npos);
}

TEST(Validator, InitialPebblesAreEverywhere) {
  // Sending (P_i, 0) works from any processor without generating it.
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kSend, 1, PebbleType{2, 0}, 0});
  protocol.add(Op{OpKind::kReceive, 0, PebbleType{2, 0}, 1});
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{1, 1}, 0});
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{2, 1}, 0});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(Validator, RejectsSizeMismatch) {
  Protocol protocol{4, 2, 1};
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace upn
