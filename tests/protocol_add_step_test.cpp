// Protocol::add_step on a step with an out-of-range op: it throws the
// std::out_of_range message of the check that failed, keeps the step's ops
// before the illegal one, and appends later steps as usual.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

}  // namespace
}  // namespace upn
