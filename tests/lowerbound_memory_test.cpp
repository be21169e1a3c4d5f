// The lower-bound stages keep memory linear in n T: ProtocolMetrics holds
// one m-bit holder row and one weight per (i, t) cell plus the generator
// sets, verify_lemma312 one canonical tree and two tables over (i, t), and
// extract_fragment two CSRs of Sigma |B_i| ids.  So running the three on
// run_paper_pipeline's protocol at n=1296 on butterfly(4), T=16, must
// raise the peak resident set by at most 128 bytes per (i, t) cell (55-61
// measured).  Dense m-bit holder and generator rows read back into 32-bit
// CSRs, one tree per root and a copy of D_i per guest cost 371-378.  The
// test binary runs alone so its peak resident set measures these stages.
//
// The simulation before the stages peaks above the resident set it leaves,
// and the stages could reuse its freed heap without raising the peak.  So
// the freed heap is first returned to the system, and a touched ballast
// lifts the resident set to the peak: every page the stages then touch
// raises the peak.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/lowerbound/lemma_verify.hpp"
#include "src/pebble/fragment.hpp"
#include "src/pebble/metrics.hpp"
#include "tests/support/protocol_corpus.hpp"

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

long current_rss_kib() {
  long pages = 0, resident = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm != nullptr) {
    if (std::fscanf(statm, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(statm);
  }
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

TEST(LowerBoundMemory, StagesCostAtMost128BytesPerCell) {
  PipelineConfig config;
  config.guest_size_hint = 1296;
  config.butterfly_dimension = 4;
  config.guest_steps = 16;
  config.seed = 71;
  const testing::PlantedProtocol planted = testing::pipeline_protocol(config);
  const double cells = static_cast<double>(planted.g0.num_nodes()) * config.guest_steps;

#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  const long resident = current_rss_kib();
  ASSERT_GT(resident, 0);
  const long ballast_kib = std::max(0L, peak_rss_kib() - resident);
  const std::vector<char> ballast(static_cast<std::size_t>(ballast_kib) * 1024, 1);

  const long before = peak_rss_kib();
  const ProtocolMetrics metrics{planted.protocol};
  const Lemma312Report report = verify_lemma312(metrics, planted.g0);
  const Fragment fragment = extract_fragment(metrics, config.guest_steps / 2);
  const double grown_bytes = 1024.0 * static_cast<double>(peak_rss_kib() - before);
  EXPECT_FALSE(report.choices.empty());
  EXPECT_EQ(fragment.total_b_size(), 48066u);  // Regression.PaperPipelineReportPinnedForFixedSeed
  EXPECT_EQ(ballast.size(), static_cast<std::size_t>(ballast_kib) * 1024);
  if (kRssMeasuresHeap) {
    EXPECT_LE(grown_bytes / cells, 128.0)
        << "peak RSS grew " << grown_bytes << " bytes for " << cells << " cells";
  }
}

}  // namespace
}  // namespace upn
