// A protocol stores each distinct host step's ops once.  Each op is one
// 64-bit word whose field widths the header sets, and a guest step that
// repeats guest step 1 at a later time is a record per host step, not a
// copy.  Each router step's ops go to the protocol as the step is routed,
// and nothing keeps the route's hops.  So emitting the universal
// simulation's protocol at n=1296 on butterfly(4) (3.1 M ops, T=16) must
// raise the peak resident set by at most 2 bytes per op: guest step 1's
// words, the step records and what the simulation itself holds (about
// 1.42).  Keeping guest step 1's hop log alive while the words grow needs
// about 2.31, and storing every op's word about 9.4.  The test binary runs
// alone so its peak resident set measures this one emission.
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

TEST(ProtocolMemory, EmittedProtocolCostsAtMostTwoBytesPerOp) {
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
    EXPECT_LE(grown_bytes / ops, 2.0) << "peak RSS grew " << grown_bytes << " bytes for "
                                       << ops << " ops";
  }
}

}  // namespace
}  // namespace upn
