// Protocol::add_step on a step with an out-of-range op: it throws the
// std::out_of_range message of the check that failed, keeps the step's ops
// before the illegal one, and appends later steps as usual.  And the chunks
// the words are stored in: a step at a chunk boundary, a step larger than
// any chunk, a throw there, repeats of steps in different chunks and copies
// all read back the ops the test added.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/pebble/io.hpp"
#include "src/pebble/protocol.hpp"

namespace upn {
namespace {

TEST(ProtocolAddStep, IllegalStepsThrowWhatAddThrows) {
  struct Case {
    const char* what;
    Op bad;
    const char* message;
  };
  const Case cases[] = {
      {"proc", Op{OpKind::kGenerate, 3, PebbleType{2, 1}, 0},
       "Protocol::add: host processor out of range"},
      {"partner", Op{OpKind::kSend, 2, PebbleType{2, 0}, 3},
       "Protocol::add: partner out of range"},
      {"pebble node", Op{OpKind::kGenerate, 2, PebbleType{4, 1}, 0},
       "Protocol::add: pebble type out of range"},
      {"pebble time", Op{OpKind::kGenerate, 2, PebbleType{2, 3}, 0},
       "Protocol::add: pebble type out of range"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    // 4 guests, 3 hosts, T = 2: a legal first step, then `bad` as the
    // middle op of a step whose other ops are legal.
    Protocol protocol{4, 3, 2};
    protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0},
                        Op{OpKind::kGenerate, 1, PebbleType{1, 1}, 0}}});
    const Op send{OpKind::kSend, 0, PebbleType{0, 1}, 1};
    try {
      protocol.add_step({{send, c.bad, Op{OpKind::kReceive, 1, PebbleType{0, 1}, 0}}});
      ADD_FAILURE() << "the illegal op was admitted";
    } catch (const std::out_of_range& e) {
      EXPECT_EQ(std::string{e.what()}, c.message);
    }
    // The step kept the send before the illegal op and not the receive
    // after it.
    ASSERT_EQ(protocol.host_steps(), 2u);
    EXPECT_EQ(protocol.num_ops(), 3u);
    ASSERT_EQ(protocol.step(1).size(), 1u);
    const Op kept = protocol.step(1)[0];
    EXPECT_EQ(kept.kind, send.kind);
    EXPECT_EQ(kept.proc, send.proc);
    EXPECT_EQ(kept.pebble, send.pebble);
    EXPECT_EQ(kept.partner, send.partner);
    // The next step appends as usual.
    protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{2, 1}, 0},
                        Op{OpKind::kGenerate, 1, PebbleType{3, 1}, 0},
                        Op{OpKind::kGenerate, 2, PebbleType{0, 2}, 0}}});
    EXPECT_EQ(protocol.host_steps(), 3u);
    EXPECT_EQ(protocol.num_ops(), 6u);
  }
}

// ---- chunk boundaries --------------------------------------------------------

using Steps = std::vector<std::vector<Op>>;

// Every chunk case uses n = 16 guests, m = 4 hosts and T = 8; the ops it
// adds have pebble times up to 4, so a repeat may raise them by up to 4.
constexpr std::uint32_t kGuests = 16;
constexpr std::uint32_t kHosts = 4;
constexpr std::uint32_t kSteps = 8;

/// `count` legal ops of every kind, different for each `seed`.
std::vector<Op> legal_ops(std::size_t count, std::size_t seed) {
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t k = seed; k < seed + count; ++k) {
    const auto kind = static_cast<OpKind>(k % 3);
    const auto proc = static_cast<std::uint32_t>(k % kHosts);
    const PebbleType pebble{static_cast<NodeId>((7 * k) % kGuests),
                            static_cast<std::uint32_t>(k % 5)};
    const auto partner =
        kind == OpKind::kGenerate ? 0u : static_cast<std::uint32_t>((k / 3) % kHosts);
    ops.push_back(Op{kind, proc, pebble, partner});
  }
  return ops;
}

/// Adds `ops` to `protocol` and to `want`, the plain list the protocol must
/// read back.
void add(Protocol& protocol, Steps& want, std::vector<Op> ops) {
  protocol.add_step(ops);
  want.push_back(std::move(ops));
}

bool same_op(const Op& a, const Op& b) {
  return a.kind == b.kind && a.proc == b.proc && a.pebble == b.pebble && a.partner == b.partner;
}

std::string upnp_text(const Protocol& protocol) {
  std::ostringstream os;
  write_protocol(os, protocol);
  return os.str();
}

/// `protocol` reads back `want` op by op through step(s).
void expect_ops(const Protocol& protocol, const Steps& want) {
  ASSERT_EQ(protocol.host_steps(), want.size());
  std::uint64_t ops = 0;
  for (std::uint32_t s = 0; s < want.size(); ++s) {
    const OpView view = protocol.step(s);
    ASSERT_EQ(view.size(), want[s].size()) << "step " << s;
    for (std::size_t k = 0; k < view.size(); ++k) {
      ASSERT_TRUE(same_op(view[k], want[s][k])) << "step " << s << " op " << k;
    }
    ops += view.size();
  }
  EXPECT_EQ(protocol.num_ops(), ops);
}

/// expect_ops, and its .upnp text reads back to a protocol that holds the
/// same ops and writes the same text.
void expect_holds(const Protocol& protocol, const Steps& want) {
  expect_ops(protocol, want);
  const std::string text = upnp_text(protocol);
  std::istringstream is{text};
  const Protocol read = read_protocol(is);
  expect_ops(read, want);
  EXPECT_EQ(upnp_text(read), text);
}

TEST(ProtocolChunks, StepThatDoesNotFitTheRestOfItsChunkOpensTheNext) {
  const std::size_t first = Protocol::kFirstChunkWords - 12;
  Protocol protocol{kGuests, kHosts, kSteps};
  Steps want;
  add(protocol, want, legal_ops(first, 0));
  add(protocol, want, legal_ops(13, 1));  // one word more than the 12 left
  add(protocol, want, {});
  // The second chunk holds kFirstChunkWords words (the first holds fewer):
  // a step of exactly the rest fills it, and the next step opens a third.
  add(protocol, want, legal_ops(Protocol::kFirstChunkWords - 13, 2));
  add(protocol, want, legal_ops(1, 3));
  add(protocol, want, legal_ops(12, 4));
  expect_holds(protocol, want);
}

TEST(ProtocolChunks, StepLargerThanTheLargestChunkGetsAChunkOfItsOwn) {
  Protocol protocol{kGuests, kHosts, kSteps};
  Steps want;
  add(protocol, want, legal_ops(100, 0));
  add(protocol, want, legal_ops(Protocol::kMaxChunkWords + 1, 1));
  add(protocol, want, legal_ops(10, 2));
  add(protocol, want, legal_ops(Protocol::kFirstChunkWords + 1, 3));
  expect_holds(protocol, want);
}

TEST(ProtocolChunks, StepThatThrowsAtAChunkBoundaryKeepsItsAdmittedOps) {
  Protocol protocol{kGuests, kHosts, kSteps};
  Steps want;
  add(protocol, want, legal_ops(Protocol::kFirstChunkWords - 12, 0));
  // 20 ops do not fit the 12 words left: the step opens the next chunk,
  // and its op 15 is out of range.
  std::vector<Op> ops = legal_ops(20, 1);
  ops[15].proc = kHosts;
  EXPECT_THROW(protocol.add_step(ops), std::out_of_range);
  want.emplace_back(ops.begin(), ops.begin() + 15);
  // The next step follows the kept ops in the same chunk.
  add(protocol, want, legal_ops(30, 2));
  // A step larger than the rest whose first op is out of range keeps none.
  ops = legal_ops(Protocol::kFirstChunkWords, 3);
  ops[0].pebble.time = kSteps + 1;
  EXPECT_THROW(protocol.add_step(ops), std::out_of_range);
  want.emplace_back();
  add(protocol, want, legal_ops(Protocol::kFirstChunkWords - 45, 4));
  add(protocol, want, legal_ops(5, 5));
  expect_holds(protocol, want);
}

TEST(ProtocolChunks, RepeatOfStepsInDifferentChunksRaisesEachStepsOwnWords) {
  Protocol protocol{kGuests, kHosts, kSteps};
  Steps want;
  add(protocol, want, legal_ops(Protocol::kFirstChunkWords - 12, 0));
  add(protocol, want, legal_ops(13, 1));
  add(protocol, want, {});
  add(protocol, want, legal_ops(Protocol::kFirstChunkWords, 2));
  protocol.repeat_steps(0, 4, 2);
  protocol.repeat_steps(1, 6, 1);
  const auto raised = [&want](std::uint32_t first, std::uint32_t last, std::uint32_t delta) {
    Steps steps(want.begin() + first, want.begin() + last);
    for (std::vector<Op>& ops : steps) {
      for (Op& op : ops) op.pebble.time += delta;
    }
    return steps;
  };
  const Steps by_two = raised(0, 4, 2);
  want.insert(want.end(), by_two.begin(), by_two.end());
  const Steps by_one = raised(1, 6, 1);
  want.insert(want.end(), by_one.begin(), by_one.end());
  add(protocol, want, legal_ops(7, 3));
  expect_holds(protocol, want);
}

TEST(ProtocolChunks, CopiesGrowIndependently) {
  Protocol original{kGuests, kHosts, kSteps};
  Steps original_want;
  add(original, original_want, legal_ops(Protocol::kFirstChunkWords - 12, 0));
  add(original, original_want, legal_ops(40, 1));
  // A copy reads its own words after the protocol it was copied from is gone.
  auto source = std::make_unique<Protocol>(original);
  const Protocol outlives = *source;
  source.reset();
  const Steps outlives_want = original_want;
  Protocol copy = original;
  Steps copy_want = original_want;
  Protocol assigned{kGuests, kHosts, kSteps};
  Steps assigned_want;
  add(assigned, assigned_want, legal_ops(3, 9));
  assigned = original;
  assigned_want = original_want;
  // Each appends different ops to the rest of its last chunk, then opens
  // another.
  add(original, original_want, legal_ops(50, 2));
  add(copy, copy_want, legal_ops(60, 3));
  add(assigned, assigned_want, legal_ops(70, 4));
  add(copy, copy_want, legal_ops(Protocol::kFirstChunkWords, 5));
  add(original, original_want, legal_ops(Protocol::kFirstChunkWords, 6));
  add(assigned, assigned_want, legal_ops(Protocol::kFirstChunkWords, 7));
  copy.repeat_steps(0, 2, 3);
  for (const std::uint32_t s : {0u, 1u}) {
    copy_want.push_back(copy_want[s]);
    for (Op& op : copy_want.back()) op.pebble.time += 3;
  }
  expect_holds(original, original_want);
  expect_holds(copy, copy_want);
  expect_holds(assigned, assigned_want);
  expect_holds(outlives, outlives_want);
}

}  // namespace
}  // namespace upn
