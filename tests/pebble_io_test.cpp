// Protocol serialization round-trip and error handling.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/pebble/io.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"

namespace upn {
namespace {

Protocol tiny_protocol() {
  Protocol protocol{3, 2, 1};
  protocol.add_step({{Op{OpKind::kSend, 1, PebbleType{2, 0}, 0},
                      Op{OpKind::kReceive, 0, PebbleType{2, 0}, 1}}});
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}}});
  return protocol;
}

bool protocols_equal(const Protocol& a, const Protocol& b) {
  if (a.num_guests() != b.num_guests() || a.num_hosts() != b.num_hosts() ||
      a.guest_steps() != b.guest_steps() || a.host_steps() != b.host_steps()) {
    return false;
  }
  for (std::uint32_t s = 0; s < a.host_steps(); ++s) {
    const auto sa = a.step(s);
    const auto sb = b.step(s);
    if (sa.size() != sb.size()) return false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].kind != sb[i].kind || sa[i].proc != sb[i].proc ||
          !(sa[i].pebble == sb[i].pebble) || sa[i].partner != sb[i].partner) {
        return false;
      }
    }
  }
  return true;
}

TEST(PebbleIo, RoundTripTiny) {
  const Protocol original = tiny_protocol();
  std::stringstream buffer;
  write_protocol(buffer, original);
  const Protocol parsed = read_protocol(buffer);
  EXPECT_TRUE(protocols_equal(original, parsed));
}

TEST(PebbleIo, RoundTripSimulatorProtocolAndRevalidate) {
  Rng rng{3};
  const Graph guest = make_random_regular(24, 4, rng);
  const Graph host = make_butterfly(2);
  UniversalSimulator sim{guest, host, make_random_embedding(24, host.num_nodes(), rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  const UniversalSimResult result = sim.run(2, options);
  std::stringstream buffer;
  write_protocol(buffer, *result.protocol);
  const Protocol parsed = read_protocol(buffer);
  EXPECT_TRUE(protocols_equal(*result.protocol, parsed));
  EXPECT_TRUE(validate_protocol(parsed, guest, host).ok);
}

TEST(PebbleIo, RejectsBadHeader) {
  std::stringstream buffer{"not-a-protocol 1 2 3 4\n"};
  EXPECT_THROW((void)read_protocol(buffer), std::runtime_error);
}

TEST(PebbleIo, RefusesAHeaderWiderThanOneWord) {
  // Each count is within the caps, but an op of this header needs
  // 2 + 2 * 26 + 27 + 26 = 107 bits.
  const std::string cap = std::to_string(kMaxProtocolDimension);
  std::stringstream buffer{"upn-protocol 1 " + cap + ' ' + cap + ' ' + cap + "\nstep\n"};
  try {
    (void)read_protocol(buffer);
    FAIL() << "a 107-bit header was read";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("read_protocol: line 1: ", 0), 0u) << what;
    EXPECT_NE(what.find("n=" + cap + " m=" + cap + " T=" + cap), std::string::npos) << what;
  }
}

TEST(PebbleIo, RejectsOpBeforeStep) {
  std::stringstream buffer{"upn-protocol 1 3 2 1\nG 0 0 1\n"};
  EXPECT_THROW((void)read_protocol(buffer), std::runtime_error);
}

TEST(PebbleIo, RejectsMalformedOp) {
  std::stringstream buffer{"upn-protocol 1 3 2 1\nstep\nS 0 0 0\n"};  // no partner
  EXPECT_THROW((void)read_protocol(buffer), std::runtime_error);
}

/// read_protocol's error for `text`, which it must reject.
std::string read_error(const std::string& text) {
  std::stringstream buffer{text};
  try {
    (void)read_protocol(buffer);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "read:\n" << text;
  return {};
}

TEST(PebbleIo, ReadsDoubleOpPerProcThatTheValidatorRejects) {
  // Protocol stores what it is given; the one-op rule is the validator's.
  std::stringstream buffer{"upn-protocol 1 3 2 1\nstep\nG 0 0 1\nG 0 1 1\n"};
  const Protocol protocol = read_protocol(buffer);
  ASSERT_EQ(protocol.host_steps(), 1u);
  ASSERT_EQ(protocol.step(0).size(), 2u);
  const ValidationResult result = validate_protocol(protocol, make_cycle(3), make_path(2));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error,
            "step 0: generate(P1,1) at proc 0: processor already acted this step (at most one "
            "operation per processor per host step) [in pebble.validator.replay, step 0]");
}

TEST(PebbleIo, RejectsOutOfRangePebble) {
  const std::string what = read_error("upn-protocol 1 3 2 1\nstep\nG 0 5 1\n");
  EXPECT_EQ(what.rfind("read_protocol: line 3: ", 0), 0u) << what;
  EXPECT_NE(what.find("pebble type out of range"), std::string::npos) << what;
}

TEST(PebbleIo, NamesTheLineOfAnIllegalOpInsideItsStep) {
  // The illegal op is neither the first nor the last line of its step, so
  // neither the `step` line, the step's last op, the next `step` line nor
  // the end of input is the line to name.
  const std::string first_step =
      read_error("upn-protocol 1 3 2 1\nstep\nG 0 0 1\nS 1 1 0 2\nG 1 2 1\nstep\nG 1 0 1\n");
  EXPECT_EQ(first_step, "read_protocol: line 4: Protocol::add: partner out of range");
  const std::string later_step = read_error(
      "upn-protocol 1 3 2 1\nstep\nG 0 0 1\n\nstep\nG 1 0 1\nS 0 1 0 1\nG 2 1 1\n"
      "R 0 1 0 1\n");
  EXPECT_EQ(later_step, "read_protocol: line 8: Protocol::add: host processor out of range");
  // Within a step, out-of-range ops are reported in op order: a bad partner
  // after a bad pebble does not shadow it.
  const std::string in_order =
      read_error("upn-protocol 1 3 2 1\nstep\nG 0 5 1\nS 1 0 0 9\n");
  EXPECT_EQ(in_order, "read_protocol: line 3: Protocol::add: pebble type out of range");
}

}  // namespace
}  // namespace upn
