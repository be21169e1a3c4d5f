// Pebble-game protocol and validator tests: the Section 3.1 rules, enforced.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/pebble/io.hpp"
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

// ---- one 64-bit word per op --------------------------------------------------

/// Bits an op of header (n, m, T) needs: 2 of kind, ceil(log2 m) each for
/// proc and partner, ceil(log2 (T+1)) for time and ceil(log2 n) for node.
unsigned op_bits(std::uint32_t n, std::uint32_t m, std::uint32_t T) {
  auto width = [](std::uint64_t count) {
    unsigned bits = 0;
    while ((std::uint64_t{1} << bits) < count) ++bits;
    return bits;
  };
  return 2 + 2 * width(m) + width(std::uint64_t{T} + 1) + width(n);
}

/// Every op of header (n, m, T) with each field at 0 or at its maximum.
std::vector<Op> extreme_ops(std::uint32_t n, std::uint32_t m, std::uint32_t T) {
  std::vector<Op> ops;
  for (const OpKind kind : {OpKind::kGenerate, OpKind::kSend, OpKind::kReceive}) {
    for (const std::uint32_t proc : {0u, m - 1}) {
      for (const std::uint32_t partner : {0u, m - 1}) {
        for (const NodeId node : {0u, n - 1}) {
          for (const std::uint32_t time : {0u, T}) {
            ops.push_back(Op{kind, proc, PebbleType{node, time}, partner});
          }
        }
      }
    }
  }
  return ops;
}

/// Adds every op of extreme_ops(n, m, T) twice, each in its own host step:
/// once through add() and once through add_step(), then reads all back
/// field for field.  A generate's partner reads back 0.
void expect_round_trip(std::uint32_t n, std::uint32_t m, std::uint32_t T) {
  SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m) + " T=" +
               std::to_string(T));
  const std::vector<Op> ops = extreme_ops(n, m, T);
  Protocol protocol{n, m, T};
  for (const Op& op : ops) {
    protocol.begin_step();
    protocol.add(op);
    protocol.begin_step();
    protocol.add_step({&op, 1});
  }
  ASSERT_EQ(protocol.num_ops(), 2 * ops.size());
  const OpView stored = protocol.ops();
  for (std::size_t k = 0; k < stored.size(); ++k) {
    const Op& want = ops[k / 2];
    const Op got = stored[k];
    EXPECT_EQ(got.kind, want.kind) << k;
    EXPECT_EQ(got.proc, want.proc) << k;
    EXPECT_EQ(got.pebble, want.pebble) << k;
    EXPECT_EQ(got.partner, want.kind == OpKind::kGenerate ? 0u : want.partner) << k;
  }
}

TEST(ProtocolCodec, EveryFieldReadsBackAtWidthBoundaries) {
  // 1 and 2 need 0 and 1 bits; 2^7 and 2^7 + 1 sit on either side of a
  // width step, and T + 1 steps at T = 2^7 - 1 and 2^7.
  for (const std::uint32_t n : {1u, 2u, 128u, 129u}) {
    for (const std::uint32_t m : {1u, 2u, 128u, 129u}) {
      for (const std::uint32_t T : {0u, 1u, 2u, 127u, 128u, 129u}) {
        expect_round_trip(n, m, T);
      }
    }
  }
  // The .upnp caps, one or two at a time, as far as one word holds them.
  const std::uint32_t cap = kMaxProtocolDimension;
  expect_round_trip(cap, 2, 1);
  expect_round_trip(2, cap, 2);
  expect_round_trip(1, 1, cap);
  expect_round_trip(cap, 2, cap);
  EXPECT_THROW((Protocol{cap, cap, 1}), ProtocolHeaderTooWide);
  EXPECT_THROW((Protocol{cap, cap, cap}), ProtocolHeaderTooWide);
}

TEST(ProtocolCodec, SixtyFourBitsFitAndSixtyFiveAreRefused) {
  // 2 + 2 * 16 + 10 + 20 = 64 bits; one more time bit makes 65.
  const std::uint32_t n = 1u << 20, m = 1u << 16;
  ASSERT_EQ(op_bits(n, m, 1023), 64u);
  ASSERT_EQ(op_bits(n, m, 1024), 65u);
  expect_round_trip(n, m, 1023);
  try {
    const Protocol refused{n, m, 1024};
    FAIL() << "a 65-bit header was accepted";
  } catch (const ProtocolHeaderTooWide& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("n=1048576 m=65536 T=1024"), std::string::npos) << what;
    EXPECT_NE(what.find("65 bits"), std::string::npos) << what;
  }
}

TEST(ProtocolCodec, EmptyFieldsAboveAFullWordReadBackZero) {
  // m = 2^31 fills all 64 bits with kind, proc and partner; time (T = 0)
  // and node (n = 1) have no bits.  Only partner reaches its maximum here:
  // proc's would need a 2^31-entry busy table.
  const std::uint32_t m = 1u << 31;
  ASSERT_EQ(op_bits(1, m, 0), 64u);
  Protocol protocol{1, m, 0};
  protocol.begin_step();
  protocol.add(Op{OpKind::kSend, 0, PebbleType{0, 0}, m - 1});
  protocol.add_step(std::vector<Op>{Op{OpKind::kReceive, 1, PebbleType{0, 0}, m - 1}});
  const OpView ops = protocol.ops();
  ASSERT_EQ(ops.size(), 2u);
  for (const std::uint32_t k : {0u, 1u}) {
    EXPECT_EQ(ops[k].kind, k == 0 ? OpKind::kSend : OpKind::kReceive);
    EXPECT_EQ(ops[k].proc, k);
    EXPECT_EQ(ops[k].pebble, (PebbleType{0, 0}));
    EXPECT_EQ(ops[k].partner, m - 1);
  }
}

TEST(ProtocolCodec, GeneratePartnerReadsBackZero) {
  Protocol protocol{3, 2, 1};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{2, 1}, 1});
  protocol.add_step(std::vector<Op>{Op{OpKind::kGenerate, 1, PebbleType{1, 1}, 7}});
  for (const Op op : protocol.step(0)) {
    EXPECT_EQ(op.kind, OpKind::kGenerate);
    EXPECT_EQ(op.partner, 0u);
  }
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
