// A protocol stores each distinct host step's ops once.  Each op is one
// 64-bit word whose field widths the header sets, and a guest step that
// repeats guest step 1 at a later time is a record per host step, not a
// copy.  Each router step's ops go to the protocol as the step is routed,
// and nothing keeps the route's hops.  The words live in chunks that never
// move, so storing them never holds a block and its doubled copy at once.
//
// So emitting the universal simulation's protocol must raise the peak
// resident set by little more than guest step 1's words, the step records
// and what the simulation itself holds:
//   * n=1296 on butterfly(4) (3.1 M ops, T=16): at most 2 bytes per op
//     (about 1.42; keeping guest step 1's hop log alive while the words
//     grow needs about 2.31, and storing every op's word about 9.4);
//   * n=4356 on butterfly(5) (13.6 M ops, T=16, upnbench pipeline_large's
//     shape): at most 1.25 bytes per op (about 1.08; growing the words in
//     one doubling vector needs about 1.42).
// Each case reads the peak resident set of its whole process, so only the
// first case a process runs measures its own emission: ctest runs each case
// in a process of its own, and a later case in the same process skips.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <utility>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"

namespace upn {
namespace {

// AddressSanitizer's and ThreadSanitizer's shadow memory inflate the
// resident set (ThreadSanitizer reads about 10.8 bytes per op).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kRssMeasuresHeap = false;
#else
constexpr bool kRssMeasuresHeap = true;
#endif

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

bool first_case_of_process() {
  static bool first = true;
  return std::exchange(first, false);
}

/// Emits the universal simulation's protocol for a random guest of `n`
/// nodes on butterfly(`dimension`) over 16 guest steps and checks that the
/// peak resident set grew by at most `bar` bytes per op.
void expect_emission_within(std::uint32_t n, std::uint32_t dimension, double min_ops,
                            double bar) {
  if (!first_case_of_process()) {
    GTEST_SKIP() << "the process's peak resident set already holds an earlier case";
  }
  Rng rng{n};
  const Graph guest = make_random_regular(n, kGuestDegree, rng);
  const Graph host = make_butterfly(dimension);
  UniversalSimulator sim{guest, host, make_random_embedding(n, host.num_nodes(), rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;

  const long before = peak_rss_kib();
  const UniversalSimResult result = sim.run(16, options);
  const double grown_bytes = 1024.0 * static_cast<double>(peak_rss_kib() - before);
  ASSERT_TRUE(result.protocol.has_value());
  const double ops = static_cast<double>(result.protocol->num_ops());
  ASSERT_GT(ops, min_ops);
  if (kRssMeasuresHeap) {
    EXPECT_LE(grown_bytes / ops, bar) << "peak RSS grew " << grown_bytes << " bytes for "
                                       << ops << " ops";
  }
}

TEST(ProtocolMemory, EmittedProtocolCostsAtMostTwoBytesPerOp) {
  expect_emission_within(1296, 4, 1e6, 2.0);
}

TEST(ProtocolMemory, PipelineLargeShapeCostsAtMostOnePointTwoFiveBytesPerOp) {
  expect_emission_within(4356, 5, 1e7, 1.25);
}

}  // namespace
}  // namespace upn
