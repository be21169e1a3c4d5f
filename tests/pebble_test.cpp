// Pebble-game protocol and validator tests: the Section 3.1 rules, enforced.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/pebble/io.hpp"
#include "src/pebble/protocol.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "src/util/contracts.hpp"
#include "tests/support/protocol_corpus.hpp"

namespace upn {
namespace {

// Guest: triangle P0-P1-P2.  Host: edge Q0-Q1.
Graph triangle() { return make_cycle(3); }
Graph host_edge() { return make_path(2); }

TEST(Protocol, TracksBasicCounters) {
  Protocol protocol{3, 2, 1};
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}}});
  EXPECT_EQ(protocol.host_steps(), 1u);
  EXPECT_EQ(protocol.num_ops(), 1u);
  EXPECT_DOUBLE_EQ(protocol.slowdown(), 1.0);
  EXPECT_DOUBLE_EQ(protocol.inefficiency(), 1.0 * 2 / 3);
}

TEST(Protocol, StoresTwoOpsOfOneProcessorThatTheValidatorRejects) {
  // Protocol checks only what its encoding needs; the one-op rule is the
  // validator's.
  Protocol protocol{3, 2, 1};
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0},
                      Op{OpKind::kGenerate, 0, PebbleType{1, 1}, 0}}});
  EXPECT_EQ(protocol.num_ops(), 2u);
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error,
            "step 0: generate(P1,1) at proc 0: processor already acted this step (at most one "
            "operation per processor per host step) [in pebble.validator.replay, step 0]");
}

TEST(Protocol, RejectsOutOfRange) {
  Protocol protocol{3, 2, 1};
  EXPECT_THROW(protocol.add_step({{Op{OpKind::kGenerate, 2, PebbleType{0, 1}, 0}}}),
               std::out_of_range);
  EXPECT_THROW(protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{3, 1}, 0}}}),
               std::out_of_range);
  EXPECT_THROW(protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 2}, 0}}}),
               std::out_of_range);
}

TEST(Protocol, AddStepOfNoOpsAppendsAnEmptyStep) {
  Protocol protocol{3, 2, 1};
  protocol.add_step({});
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}}});
  protocol.add_step({});
  EXPECT_EQ(protocol.host_steps(), 3u);
  EXPECT_EQ(protocol.num_ops(), 1u);
  EXPECT_EQ(protocol.step(0).size(), 0u);
  EXPECT_EQ(protocol.step(1).size(), 1u);
  EXPECT_EQ(protocol.step(2).size(), 0u);
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

/// Adds every op of extreme_ops(n, m, T), each in its own host step, then
/// reads all back field for field.  A generate's partner reads back 0.
void expect_round_trip(std::uint32_t n, std::uint32_t m, std::uint32_t T) {
  SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m) + " T=" +
               std::to_string(T));
  const std::vector<Op> ops = extreme_ops(n, m, T);
  Protocol protocol{n, m, T};
  for (const Op& op : ops) protocol.add_step({&op, 1});
  ASSERT_EQ(protocol.num_ops(), ops.size());
  const std::vector<Op> stored = testing::flat_ops(protocol);
  for (std::size_t k = 0; k < stored.size(); ++k) {
    const Op& want = ops[k];
    const Op& got = stored[k];
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
  // and node (n = 1) have no bits.
  const std::uint32_t m = 1u << 31;
  ASSERT_EQ(op_bits(1, m, 0), 64u);
  Protocol protocol{1, m, 0};
  const Op expected[] = {Op{OpKind::kSend, 0, PebbleType{0, 0}, m - 1},
                         Op{OpKind::kReceive, 1, PebbleType{0, 0}, m - 1},
                         Op{OpKind::kReceive, m - 1, PebbleType{0, 0}, m - 1}};
  protocol.add_step(expected);
  const std::vector<Op> ops = testing::flat_ops(protocol);
  ASSERT_EQ(ops.size(), std::size(expected));
  for (std::size_t k = 0; k < ops.size(); ++k) {
    EXPECT_EQ(ops[k].kind, expected[k].kind);
    EXPECT_EQ(ops[k].proc, expected[k].proc);
    EXPECT_EQ(ops[k].pebble, expected[k].pebble);
    EXPECT_EQ(ops[k].partner, expected[k].partner);
  }
}

TEST(ProtocolCodec, GeneratePartnerReadsBackZero) {
  Protocol protocol{3, 2, 1};
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{2, 1}, 1},
                      Op{OpKind::kGenerate, 1, PebbleType{1, 1}, 7}}});
  for (const Op op : protocol.step(0)) {
    EXPECT_EQ(op.kind, OpKind::kGenerate);
    EXPECT_EQ(op.partner, 0u);
  }
}

// ---- repeat_steps: a time-shifted copy of stored steps ----------------------

using StepOps = std::vector<std::vector<Op>>;

/// Appends one host step per entry of `steps`.
void add_steps(Protocol& protocol, const StepOps& steps) {
  for (const std::vector<Op>& ops : steps) protocol.add_step(ops);
}

/// The ops of host steps [first, last), each pebble time raised by `delta`.
StepOps restamped(const Protocol& protocol, std::uint32_t first, std::uint32_t last,
                  std::uint32_t delta) {
  StepOps steps;
  for (std::uint32_t s = first; s < last; ++s) {
    std::vector<Op>& ops = steps.emplace_back();
    for (Op op : protocol.step(s)) {
      op.pebble.time += delta;
      ops.push_back(op);
    }
  }
  return steps;
}

std::string upnp_text(const Protocol& protocol) {
  std::ostringstream os;
  write_protocol(os, protocol);
  return os.str();
}

/// Everything a reader sees: the step sizes, each decoded op and the .upnp
/// text.
void expect_same_protocol(const Protocol& got, const Protocol& want) {
  ASSERT_EQ(got.host_steps(), want.host_steps());
  ASSERT_EQ(got.num_ops(), want.num_ops());
  for (std::uint32_t s = 0; s < want.host_steps(); ++s) {
    ASSERT_EQ(got.step(s).size(), want.step(s).size()) << "step " << s;
  }
  const std::vector<Op> a = testing::flat_ops(got), b = testing::flat_ops(want);
  for (std::size_t k = 0; k < b.size(); ++k) {
    EXPECT_EQ(a[k].kind, b[k].kind) << k;
    EXPECT_EQ(a[k].proc, b[k].proc) << k;
    EXPECT_EQ(a[k].pebble, b[k].pebble) << k;
    EXPECT_EQ(a[k].partner, b[k].partner) << k;
  }
  EXPECT_EQ(upnp_text(got), upnp_text(want));
}

/// A guest step's shape on 4 hosts: two route steps at time `t - 1`, an
/// empty step and one generate round at time `t`.
StepOps guest_step_block(std::uint32_t t) {
  return {
      {Op{OpKind::kSend, 0, PebbleType{4, t - 1}, 1}, Op{OpKind::kReceive, 1, PebbleType{4, t - 1}, 0},
       Op{OpKind::kSend, 3, PebbleType{0, t - 1}, 2}, Op{OpKind::kReceive, 2, PebbleType{0, t - 1}, 3}},
      {Op{OpKind::kSend, 1, PebbleType{4, t - 1}, 2}},
      {},
      {Op{OpKind::kGenerate, 0, PebbleType{0, t}, 0}, Op{OpKind::kGenerate, 2, PebbleType{4, t}, 0},
       Op{OpKind::kGenerate, 3, PebbleType{2, t}, 0}},
  };
}

TEST(ProtocolRepeat, EqualsAddingEachOpRestamped) {
  const std::uint32_t T = 6;
  for (const auto& [first, last, delta] :
       {std::tuple{0u, 4u, 1u}, std::tuple{0u, 4u, 5u}, std::tuple{1u, 3u, 2u},
        std::tuple{3u, 4u, 0u}, std::tuple{0u, 8u, 3u}}) {
    SCOPED_TRACE("first=" + std::to_string(first) + " last=" + std::to_string(last) +
                 " delta=" + std::to_string(delta));
    Protocol got{5, 4, T};
    add_steps(got, guest_step_block(1));
    add_steps(got, guest_step_block(2));
    Protocol want = got;
    add_steps(want, restamped(got, first, last, delta));
    got.repeat_steps(first, last, delta);
    expect_same_protocol(got, want);
  }
}

/// The flat form of guest steps 1, 2 and 4 of guest_step_block, then host
/// steps [2, 10) of those again raised by 3: every step stored by add_step.
Protocol flat_repeats(std::uint32_t T) {
  Protocol want{5, 4, T};
  for (const std::uint32_t t : {1u, 2u, 4u}) add_steps(want, guest_step_block(t));
  add_steps(want, restamped(want, 2, 10, 3));
  return want;
}

/// The same protocol with everything after guest step 1 repeated: steps
/// 4..7 repeat 0..3 by 1, steps 8..11 repeat those repeats by 2, and steps
/// 12..19 repeat a range that mixes stored and repeated steps.
Protocol repeated_repeats(std::uint32_t T) {
  Protocol got{5, 4, T};
  add_steps(got, guest_step_block(1));
  got.repeat_steps(0, 4, 1);
  got.repeat_steps(4, 8, 2);
  got.repeat_steps(2, 10, 3);
  return got;
}

TEST(ProtocolRepeat, RepeatOfRepeatsAddsTheDeltas) {
  const std::uint32_t T = 8;
  Protocol got = repeated_repeats(T);
  const Protocol want = flat_repeats(T);
  expect_same_protocol(got, want);
  // Steps 8..11 sit at delta 3 (latest time 4): a further 4 fits T = 8 and
  // 5 does not, exactly as for the flat form.
  const std::string before = upnp_text(got);
  EXPECT_THROW(got.repeat_steps(8, 12, 5), std::out_of_range);
  EXPECT_EQ(upnp_text(got), before);
  Protocol flat = want;
  EXPECT_THROW(add_steps(flat, restamped(want, 8, 12, 5)), std::out_of_range);
  got.repeat_steps(8, 12, 4);
  flat = want;
  add_steps(flat, restamped(want, 8, 12, 4));
  expect_same_protocol(got, flat);
}

TEST(ProtocolRepeat, WriteReadRoundTripEqualsTheFlatForm) {
  const Protocol got = repeated_repeats(8);
  const Protocol want = flat_repeats(8);
  std::istringstream text{upnp_text(got)};
  const Protocol read = read_protocol(text);
  expect_same_protocol(read, want);
  EXPECT_EQ(upnp_text(read), upnp_text(got));
}

TEST(ProtocolRepeat, TimePastHorizonThrowsWhatAddStepThrowsAndChangesNothing) {
  Protocol protocol{5, 4, 3};
  add_steps(protocol, guest_step_block(1));
  add_steps(protocol, guest_step_block(2));  // latest time 2
  const std::string before = upnp_text(protocol);
  const std::uint32_t steps = protocol.host_steps();
  const std::uint64_t ops = protocol.num_ops();

  std::string add_error;
  try {
    Protocol probe = protocol;
    probe.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 4}, 0}}});
  } catch (const std::out_of_range& e) {
    add_error = e.what();
  }
  ASSERT_FALSE(add_error.empty());
  for (const std::uint32_t delta : {2u, 3u, 0xffffffffu}) {
    try {
      protocol.repeat_steps(4, 8, delta);
      FAIL() << "time 2 + " << delta << " > T = 3 was copied";
    } catch (const std::out_of_range& e) {
      EXPECT_EQ(std::string{e.what()}, add_error);
    }
    EXPECT_EQ(protocol.host_steps(), steps);
    EXPECT_EQ(protocol.num_ops(), ops);
    EXPECT_EQ(upnp_text(protocol), before);
  }
  // Time 1 + 2 = T is still in range.
  protocol.repeat_steps(0, 4, 2);
  EXPECT_EQ(protocol.host_steps(), steps + 4);
}

TEST(ProtocolRepeat, RaisedTimeNeverCarriesIntoNode) {
  // T = 0: no time bits, so only delta 0 copies.  T = 1 and T = 2^k - 1:
  // the time field is full after the raise.  Node, proc and partner sit at
  // their maxima, where a carry out of the time field would show.
  for (const std::uint32_t T : {0u, 1u, 7u, 255u}) {
    SCOPED_TRACE("T=" + std::to_string(T));
    const std::uint32_t n = 8, m = 4;
    Protocol protocol{n, m, T};
    protocol.add_step({{Op{OpKind::kSend, m - 1, PebbleType{n - 1, 0}, m - 2},
                        Op{OpKind::kReceive, m - 2, PebbleType{n - 1, 0}, m - 1},
                        Op{OpKind::kGenerate, 0, PebbleType{n - 1, 0}, 0}}});
    Protocol want = protocol;
    add_steps(want, restamped(protocol, 0, 1, T));
    protocol.repeat_steps(0, 1, T);
    expect_same_protocol(protocol, want);
    for (const Op op : protocol.step(1)) {
      EXPECT_EQ(op.pebble, (PebbleType{n - 1, T}));
    }
    EXPECT_THROW(protocol.repeat_steps(1, 2, 1), std::out_of_range);
    EXPECT_EQ(protocol.host_steps(), 2u);
  }
}

TEST(ProtocolRepeat, EmptyRangeIsANoOpAndARangePastTheEndIsAContractViolation) {
  Protocol protocol{5, 4, 2};
  add_steps(protocol, guest_step_block(1));
  const std::string before = upnp_text(protocol);
  protocol.repeat_steps(2, 2, 0xffffffffu);
  protocol.repeat_steps(4, 4, 1);
  EXPECT_EQ(upnp_text(protocol), before);
  // A step without ops carries no time, so any delta copies it.
  protocol.repeat_steps(2, 3, 0xffffffffu);
  EXPECT_EQ(protocol.host_steps(), 5u);
  EXPECT_EQ(protocol.step(4).size(), 0u);
  EXPECT_THROW(protocol.repeat_steps(0, 6, 0), ContractViolation);
  EXPECT_THROW(protocol.repeat_steps(3, 2, 0), ContractViolation);
  EXPECT_EQ(protocol.host_steps(), 5u);
  Protocol empty{5, 4, 2};
  empty.repeat_steps(0, 0, 1);
  EXPECT_EQ(empty.host_steps(), 0u);
  EXPECT_THROW(empty.repeat_steps(0, 1, 0), ContractViolation);
}

TEST(Validator, AcceptsMinimalCompleteSimulation) {
  // T = 1: every processor holds all (P_i, 0); generating (P_i, 1) needs
  // only initial pebbles.  Generate all three finals on Q0 over 3 steps.
  Protocol protocol{3, 2, 1};
  for (NodeId i = 0; i < 3; ++i) {
    protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{i, 1}, 0}}});
  }
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.pebbles_generated, 3u);
}

TEST(Validator, RejectsMissingFinalPebble) {
  Protocol protocol{3, 2, 1};
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}}});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("final pebble"), std::string::npos);
}

TEST(Validator, RejectsGenerateWithoutPredecessors) {
  // T = 2: generating (P0, 2) requires (P0,1), (P1,1), (P2,1) at the proc.
  Protocol protocol{3, 2, 2};
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 2}, 0}}});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("predecessor"), std::string::npos);
}

TEST(Validator, SendReceiveMovesPebbles) {
  // Q0 generates (P0,1).. then sends it to Q1; Q1 generates (P0,2) after
  // also getting (P1,1),(P2,1).
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
  gen(1, 2, 2);
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.pebbles_sent, 3u);
}

TEST(Validator, RejectsSendOfUnheldPebble) {
  Protocol protocol{3, 2, 2};
  protocol.add_step({{Op{OpKind::kSend, 0, PebbleType{0, 1}, 1},  // (P0,1) never generated
                      Op{OpKind::kReceive, 1, PebbleType{0, 1}, 0}}});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("does not hold"), std::string::npos);
}

TEST(Validator, RejectsReceiveWithoutMatchingSend) {
  Protocol protocol{3, 2, 1};
  protocol.add_step({{Op{OpKind::kReceive, 1, PebbleType{0, 0}, 0}}});
  const ValidationResult result = validate_protocol(protocol, triangle(), host_edge());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("matching send"), std::string::npos);
}

TEST(Validator, RejectsSendToNonNeighbor) {
  // Host path(3): Q0-Q1-Q2; Q0 -> Q2 is not an edge.
  Protocol protocol{3, 3, 1};
  protocol.add_step({{Op{OpKind::kSend, 0, PebbleType{0, 0}, 2},
                      Op{OpKind::kReceive, 2, PebbleType{0, 0}, 0}}});
  const ValidationResult result = validate_protocol(protocol, triangle(), make_path(3));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("neighbor"), std::string::npos);
}

TEST(Validator, InitialPebblesAreEverywhere) {
  // Sending (P_i, 0) works from any processor without generating it.
  Protocol protocol{3, 2, 1};
  protocol.add_step({{Op{OpKind::kSend, 1, PebbleType{2, 0}, 0},
                      Op{OpKind::kReceive, 0, PebbleType{2, 0}, 1}}});
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}}});
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{1, 1}, 0}}});
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{2, 1}, 0}}});
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
