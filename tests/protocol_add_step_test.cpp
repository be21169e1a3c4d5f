// Protocol::add_step on a step with an illegal op: it throws the type and
// message of the check that failed, keeps the step's ops before the illegal
// one, and leaves every processor free in the step after it.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/pebble/protocol.hpp"
#include "src/util/contracts.hpp"

namespace upn {
namespace {

TEST(ProtocolAddStep, IllegalStepsThrowWhatAddThrows) {
  struct Case {
    const char* what;
    Op bad;
    bool contract;        ///< ContractViolation, else std::out_of_range
    const char* message;  ///< the whole message, or its tail for a contract
  };
  const Case cases[] = {
      {"duplicate processor", Op{OpKind::kGenerate, 0, PebbleType{2, 1}, 0}, true,
       "Protocol::add: processor already acted this step (pebble-game legality: at most one "
       "operation per processor per host step)"},
      {"proc", Op{OpKind::kGenerate, 3, PebbleType{2, 1}, 0}, false,
       "Protocol::add: host processor out of range"},
      {"partner", Op{OpKind::kSend, 2, PebbleType{2, 0}, 3}, false,
       "Protocol::add: partner out of range"},
      {"pebble node", Op{OpKind::kGenerate, 2, PebbleType{4, 1}, 0}, false,
       "Protocol::add: pebble type out of range"},
      {"pebble time", Op{OpKind::kGenerate, 2, PebbleType{2, 3}, 0}, false,
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
    std::string message;
    try {
      protocol.add_step({{send, c.bad, Op{OpKind::kReceive, 1, PebbleType{0, 1}, 0}}});
      ADD_FAILURE() << "the illegal op was admitted";
    } catch (const ContractViolation& e) {
      EXPECT_TRUE(c.contract) << e.what();
      message = e.what();
    } catch (const std::out_of_range& e) {
      EXPECT_FALSE(c.contract) << e.what();
      message = e.what();
    }
    if (c.contract) {
      const std::string tail = std::string{": "} + c.message;
      ASSERT_GE(message.size(), tail.size()) << message;
      EXPECT_EQ(message.substr(message.size() - tail.size()), tail) << message;
    } else {
      EXPECT_EQ(message, c.message);
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
    // Every processor is free again in the next step.
    protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{2, 1}, 0},
                        Op{OpKind::kGenerate, 1, PebbleType{3, 1}, 0},
                        Op{OpKind::kGenerate, 2, PebbleType{0, 2}, 0}}});
    EXPECT_EQ(protocol.host_steps(), 3u);
    EXPECT_EQ(protocol.num_ops(), 6u);
  }
}

}  // namespace
}  // namespace upn
