// Differential tests pinning the parallel APIs' determinism contract: for
// every pool size (including the inline serial size-1 pool, which is the
// reference implementation) the parallel sweep, batch validation, and
// census produce byte-identical results.  Thread counts {1, 2, 7} cover
// the serial path, the minimal concurrent pool, and an oversubscribed one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/embedding.hpp"
#include "src/core/slowdown.hpp"
#include "src/core/universal_sim.hpp"
#include "src/lowerbound/fragment_census.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/g0.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/par.hpp"

namespace upn {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 7};

// Exact equality is intentional throughout: the contract is byte-identical
// output, not approximate agreement.
void expect_rows_identical(const std::vector<SlowdownRow>& a,
                           const std::vector<SlowdownRow>& b, unsigned threads) {
  ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i) + " threads=" + std::to_string(threads));
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].m, b[i].m);
    EXPECT_EQ(a[i].load, b[i].load);
    EXPECT_EQ(std::memcmp(&a[i].slowdown, &b[i].slowdown, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[i].inefficiency, &b[i].inefficiency, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[i].load_bound, &b[i].load_bound, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[i].paper_bound, &b[i].paper_bound, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[i].normalized, &b[i].normalized, sizeof(double)), 0);
    EXPECT_EQ(a[i].verified, b[i].verified);
  }
}

TEST(ParDifferential, SweepButterflyHostsIdenticalAcrossThreadCounts) {
  const std::uint32_t n = 128;
  const std::uint32_t steps = 2;
  const std::uint64_t seed = 31;
  Rng guest_rng{seed};
  const Graph guest = make_random_regular(n, kGuestDegree, guest_rng);

  ThreadPool serial{1};
  const std::vector<SlowdownRow> reference =
      sweep_butterfly_hosts_par(guest, steps, n, seed, serial);
  ASSERT_FALSE(reference.empty());
  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool{threads};
    expect_rows_identical(reference,
                          sweep_butterfly_hosts_par(guest, steps, n, seed, pool),
                          threads);
  }
}

TEST(ParDifferential, BatchValidationMatchesSerialVerdicts) {
  struct Emitted {
    Graph guest;
    Graph host;
    Protocol protocol{1, 1, 1};
  };
  std::vector<Emitted> emitted;
  for (const std::uint32_t n : {32u, 64u, 96u}) {
    Rng rng{1000 + n};
    Emitted e;
    e.guest = make_random_regular(n, kGuestDegree, rng);
    e.host = make_butterfly(2);
    UniversalSimulator sim{e.guest, e.host,
                           make_random_embedding(n, e.host.num_nodes(), rng)};
    UniversalSimOptions options;
    options.emit_protocol = true;
    UniversalSimResult result = sim.run(3, options);
    e.protocol = std::move(*result.protocol);
    emitted.push_back(std::move(e));
  }

  std::vector<ValidationResult> serial_verdicts;
  for (const Emitted& e : emitted) {
    serial_verdicts.push_back(validate_protocol(e.protocol, e.guest, e.host));
  }

  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool{threads};
    const std::vector<ValidationResult> batch =
        pool.parallel_map<ValidationResult>(emitted.size(), [&](std::size_t i) {
          return validate_protocol(emitted[i].protocol, emitted[i].guest, emitted[i].host);
        });
    ASSERT_EQ(batch.size(), serial_verdicts.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].ok, serial_verdicts[i].ok)
          << "job " << i << " threads=" << threads;
      EXPECT_EQ(batch[i].error, serial_verdicts[i].error)
          << "job " << i << " threads=" << threads;
    }
  }
}

TEST(ParDifferential, FragmentCensusIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = 4242;
  Rng rng{seed};
  const std::uint32_t m = 12;  // butterfly(2)
  const std::uint32_t a = g0_block_parameter(m);
  const std::uint32_t n = g0_round_guest_size(60, a);
  const G0 g0 = make_g0(n, m, rng);
  const std::uint32_t guests = 6, T = 6;

  ThreadPool serial{1};
  const FragmentCensus reference =
      run_fragment_census_par(g0, 2, guests, T, seed, serial);
  ASSERT_EQ(reference.rows.size(), guests);

  for (const unsigned threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool{threads};
    const FragmentCensus census = run_fragment_census_par(g0, 2, guests, T, seed, pool);
    EXPECT_EQ(census.guests, reference.guests);
    EXPECT_EQ(census.distinct_fragments, reference.distinct_fragments);
    EXPECT_EQ(std::memcmp(&census.mean_inefficiency, &reference.mean_inefficiency,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&census.worst_log2_multiplicity,
                          &reference.worst_log2_multiplicity, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&census.log2_a_bound, &reference.log2_a_bound, sizeof(double)),
              0);
    ASSERT_EQ(census.rows.size(), reference.rows.size());
    for (std::size_t g = 0; g < census.rows.size(); ++g) {
      EXPECT_EQ(census.rows[g].fragment_hash, reference.rows[g].fragment_hash)
          << "guest " << g;
      EXPECT_EQ(census.rows[g].sum_b, reference.rows[g].sum_b) << "guest " << g;
      EXPECT_EQ(census.rows[g].small_d, reference.rows[g].small_d) << "guest " << g;
      EXPECT_EQ(std::memcmp(&census.rows[g].log2_multiplicity,
                            &reference.rows[g].log2_multiplicity, sizeof(double)),
                0)
          << "guest " << g;
    }
  }
}

TEST(ParDifferential, RngStreamsAreDecorrelatedFromTaskIndex) {
  // Neighboring task streams must not collide or shadow each other: the
  // first outputs of streams 0..999 under one seed are pairwise distinct.
  std::vector<std::uint64_t> firsts;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    Rng rng = Rng::stream(7, i);
    firsts.push_back(rng());
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()), firsts.end());
}

}  // namespace
}  // namespace upn
