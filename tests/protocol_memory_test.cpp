// A protocol costs 8 bytes per op.  Each op is one 64-bit word whose field
// widths the header sets, so emitting the universal simulation's protocol
// at n=1296 on butterfly(4) (3.1 M ops) must raise the peak resident set
// by at most 12 bytes per op: the word, plus the step offsets and what the
// simulation itself holds.  A 16-byte op would need about 17.  The test
// binary runs alone so its peak resident set measures this one emission.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"

namespace upn {
namespace {

// AddressSanitizer's shadow memory and redzones inflate the resident set.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kRssMeasuresHeap = false;
#else
constexpr bool kRssMeasuresHeap = true;
#endif

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

TEST(ProtocolMemory, EmittedProtocolCostsAtMostTwelveBytesPerOp) {
  Rng rng{1296};
  const Graph guest = make_random_regular(1296, kGuestDegree, rng);
  const Graph host = make_butterfly(4);
  UniversalSimulator sim{guest, host, make_random_embedding(1296, host.num_nodes(), rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;

  const long before = peak_rss_kib();
  const UniversalSimResult result = sim.run(16, options);
  const double grown_bytes = 1024.0 * static_cast<double>(peak_rss_kib() - before);
  ASSERT_TRUE(result.protocol.has_value());
  const double ops = static_cast<double>(result.protocol->num_ops());
  ASSERT_GT(ops, 1e6);
  if (kRssMeasuresHeap) {
    EXPECT_LE(grown_bytes / ops, 12.0) << "peak RSS grew " << grown_bytes << " bytes for "
                                       << ops << " ops";
  }
}

}  // namespace
}  // namespace upn
