// Differential test of extract_fragment, which stores B as one CSR and
// views D_i in the held_by CSR, against the preserved copy-per-guest
// extraction (tests/support/reference_fragment.hpp).  For every t0 in
// [0, T) of every protocol of the lower-bound corpus, of the random-mutation
// base protocols and of fragment_test's hand-built protocol: B(i), b(i),
// D(i), total_b_size, fragment_hash, log2_multiplicity_bound (bit for bit)
// and count_small_d must equal the oracle's, and where the oracle throws
// (a (P_i, t0+1) with no generator) extract_fragment must throw the same.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/lowerbound/fragment_census.hpp"
#include "src/pebble/fragment.hpp"
#include "src/pebble/metrics.hpp"
#include "src/topology/random_regular.hpp"
#include "tests/support/protocol_corpus.hpp"
#include "tests/support/reference_fragment.hpp"

namespace upn {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Compares both extractions at every t0 < T; returns how many extracted.
std::size_t expect_same_fragments(const Protocol& protocol) {
  const ProtocolMetrics metrics{protocol};
  const std::uint32_t n = metrics.num_guests();
  const double sqrt_threshold = n / std::sqrt(static_cast<double>(metrics.num_hosts()));
  std::size_t extracted = 0;
  for (std::uint32_t t0 = 0; t0 < metrics.guest_steps(); ++t0) {
    SCOPED_TRACE("t0 = " + std::to_string(t0));
    bool reference_threw = false;
    testing::ReferenceFragment reference;
    try {
      reference = testing::reference_extract_fragment(metrics, t0);
    } catch (const std::invalid_argument&) {
      reference_threw = true;
    }
    if (reference_threw) {
      EXPECT_THROW((void)extract_fragment(metrics, t0), std::invalid_argument);
      continue;
    }
    const Fragment fragment = extract_fragment(metrics, t0);
    ++extracted;
    EXPECT_EQ(fragment.t0(), reference.t0);
    EXPECT_EQ(fragment.num_guests(), reference.b.size());
    if (fragment.num_guests() != reference.b.size()) continue;
    for (NodeId i = 0; i < n; ++i) {
      EXPECT_TRUE(std::ranges::equal(fragment.B(i), reference.B[i])) << "i = " << i;
      EXPECT_EQ(fragment.b(i), reference.b[i]) << "i = " << i;
      EXPECT_TRUE(std::ranges::equal(fragment.D(i), reference.D[i])) << "i = " << i;
    }
    EXPECT_EQ(fragment.total_b_size(), reference.total_b_size());
    EXPECT_EQ(fragment_hash(fragment), testing::reference_fragment_hash(reference));
    for (const std::uint32_t c : {2u, 4u, kGuestDegree}) {
      EXPECT_EQ(bits(log2_multiplicity_bound(fragment, c)),
                bits(testing::reference_log2_multiplicity_bound(reference, c)))
          << "c = " << c;
    }
    for (const double threshold : {0.0, 1.0, 3.0, sqrt_threshold, static_cast<double>(n)}) {
      EXPECT_EQ(count_small_d(fragment, threshold),
                testing::reference_count_small_d(reference, threshold))
          << "threshold = " << threshold;
    }
  }
  EXPECT_THROW((void)extract_fragment(metrics, metrics.guest_steps()), std::out_of_range);
  return extracted;
}

TEST(FragmentDifferential, LowerBoundCorpusAtEveryT0) {
  std::size_t extracted = 0;
  for (const testing::PlantedProtocol& planted : testing::lowerbound_corpus()) {
    SCOPED_TRACE(planted.name);
    extracted += expect_same_fragments(planted.protocol);
  }
  EXPECT_GT(extracted, 150u);
}

TEST(FragmentDifferential, RandomMutationBasesAtEveryT0) {
  for (const testing::MutationSize& size : testing::kRandomMutationSizes) {
    const testing::Emitted e = testing::random_mutation_base(size);
    EXPECT_EQ(expect_same_fragments(e.protocol), size.T);
  }
}

TEST(FragmentDifferential, MissingGeneratorsThrowAlike) {
  // Triangle guest on a 2-node host, T = 2; (P_2, 2) is never generated, so
  // t0 = 1 has no fragment while t0 = 0 has one.
  Protocol protocol{3, 2, 2};
  auto gen = [&](std::uint32_t proc, NodeId i, std::uint32_t t) {
    protocol.add_step({{Op{OpKind::kGenerate, proc, PebbleType{i, t}, 0}}});
  };
  gen(0, 0, 1);
  gen(1, 1, 1);
  gen(0, 2, 1);
  protocol.add_step({{Op{OpKind::kSend, 0, PebbleType{0, 1}, 1},
                      Op{OpKind::kReceive, 1, PebbleType{0, 1}, 0}}});
  gen(1, 0, 2);
  gen(1, 1, 2);
  EXPECT_EQ(expect_same_fragments(protocol), 1u);
}

TEST(FragmentDifferential, SeveralGeneratorsPickTheLeastLoadedThenTheLowest) {
  // Triangle guest on a 2-node host, T = 2.  Both processors generate
  // (P_0, t) and (P_1, t) at both levels; only Q0 generates (P_2, 1) and
  // (P_2, 2).  At t0 = 0 every processor holds every initial pebble (a tie,
  // so b_0 = Q0); at t0 = 1 Q0 holds three pebbles and Q1 two, so b_0 = Q1.
  Protocol protocol{3, 2, 2};
  auto gen = [&](std::uint32_t proc, NodeId i, std::uint32_t t) {
    protocol.add_step({{Op{OpKind::kGenerate, proc, PebbleType{i, t}, 0}}});
  };
  for (const std::uint32_t t : {1u, 2u}) {
    gen(1, 0, t);
    gen(0, 0, t);
    gen(0, 1, t);
    gen(1, 1, t);
    gen(0, 2, t);
  }
  EXPECT_EQ(expect_same_fragments(protocol), 2u);
  const ProtocolMetrics metrics{protocol};
  EXPECT_EQ(extract_fragment(metrics, 0).b(0), 0u);
  EXPECT_EQ(extract_fragment(metrics, 1).b(0), 1u);
}

}  // namespace
}  // namespace upn
