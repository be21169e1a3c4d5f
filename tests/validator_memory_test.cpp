// The validator's memory follows the protocol, not its header.  A .upnp
// whose header claims T = kMaxProtocolDimension (2^26) but which holds only
// a few ops must validate in memory proportional to those ops: a dense
// holdings table (one n-bit row per host and guest time) would need
// n * m * T bits = 128 MiB here, and a dense row index 1 GiB.  Reading a
// .upnp follows its ops too: a header claiming m = 2^26 hosts must not
// cost a 4-byte entry per host up front (256 MiB).  The test binary runs
// alone so its peak resident set measures the reader and the validator.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/pebble/io.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "tests/support/reference_validator.hpp"

namespace upn {
namespace {

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

TEST(ValidatorMemory, ReadingAHugeHostCountStaysSmall) {
  // 41 bytes: one step, one generate, on a header of m = 2^26 hosts.
  const std::string text =
      "upn-protocol 1 4 " + std::to_string(kMaxProtocolDimension) + " 4\nstep\nG 0 0 1\n";
  std::stringstream buffer{text};
  const long before = peak_rss_kib();
  const Protocol protocol = read_protocol(buffer);
  EXPECT_LT(peak_rss_kib() - before, 8 * 1024) << "reading grew with the header's m";
  EXPECT_EQ(protocol.num_hosts(), kMaxProtocolDimension);
  EXPECT_EQ(protocol.num_ops(), 1u);
}

TEST(ValidatorMemory, HugeHeaderWithFewOpsStaysSmall) {
  const std::string T = std::to_string(kMaxProtocolDimension);
  const std::string T1 = std::to_string(kMaxProtocolDimension - 1);
  const std::string header = "upn-protocol 1 4 4 " + T + "\n";
  const std::vector<std::string> texts = {
      // A legal prefix whose final pebbles are never generated.
      header + "step\nS 0 1 0 1\nR 1 1 0 0\nstep\nG 0 0 1\nG 1 1 1\nstep\nS 0 0 1 1\nR 1 0 1 0\n",
      // A final-level generate without its predecessors.
      header + "step\nG 2 3 " + T + "\n",
      // A send of a top-of-range pebble nobody holds.
      header + "step\nS 3 0 " + T1 + " 2\nR 2 0 " + T1 + " 3\n",
  };
  const Graph guest = make_cycle(4);
  const Graph host = make_complete(4);
  for (const std::string& text : texts) {
    std::stringstream buffer{text};
    const Protocol protocol = read_protocol(buffer);
    ASSERT_EQ(protocol.guest_steps(), kMaxProtocolDimension);

    const long before = peak_rss_kib();
    const ValidationResult fast = validate_protocol(protocol, guest, host);
    EXPECT_LT(peak_rss_kib() - before, 8 * 1024) << "validator memory grew with the header's T";

    const ValidationResult reference =
        testing::reference_validate_protocol(protocol, guest, host);
    EXPECT_FALSE(fast.ok);
    EXPECT_EQ(fast.ok, reference.ok);
    EXPECT_EQ(fast.error, reference.error);
    EXPECT_EQ(fast.pebbles_generated, reference.pebbles_generated);
    EXPECT_EQ(fast.pebbles_sent, reference.pebbles_sent);
    EXPECT_EQ(fast.pebbles_received, reference.pebbles_received);
  }
}

}  // namespace
}  // namespace upn
