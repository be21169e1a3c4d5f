#include "tests/support/reference_fragment.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/util/contracts.hpp"
#include "src/util/math.hpp"
#include "src/util/rng.hpp"

namespace upn::testing {

std::uint64_t ReferenceFragment::total_b_size() const {
  std::uint64_t total = 0;
  for (const auto& set : B) total += set.size();
  return total;
}

ReferenceFragment reference_extract_fragment(const ProtocolMetrics& metrics, std::uint32_t t0) {
  const std::uint32_t n = metrics.num_guests();
  if (t0 >= metrics.guest_steps()) {
    throw std::out_of_range{"extract_fragment: t0 must be < T"};
  }
  ReferenceFragment fragment;
  fragment.t0 = t0;
  fragment.B.reserve(n);
  fragment.b.reserve(n);

  // P(j, t0) sizes: how many guests' t0-pebbles each processor holds.
  std::vector<std::uint32_t> load(metrics.num_hosts(), 0);
  for (NodeId i = 0; i < n; ++i) {
    for (const std::uint32_t j : metrics.representatives(i, t0)) ++load[j];
  }

  for (NodeId i = 0; i < n; ++i) {
    fragment.B.push_back(metrics.representatives(i, t0));
    const auto gens = metrics.generators(i, t0);
    if (gens.empty()) {
      throw std::invalid_argument{
          "extract_fragment: some (P_i, t0+1) has no generator at this t0"};
    }
    // Choose the generator holding the fewest t0-pebbles: the fragment with
    // the smallest D_i the protocol admits.
    std::uint32_t best = gens.front();
    for (const std::uint32_t g : gens) {
      if (load[g] < load[best]) best = g;
    }
    fragment.b.push_back(best);
  }

  // D_i = { i' : b_i in B_{i'} }.  Invert once: for each processor, the
  // sorted list of guests it represents at t0.
  std::vector<std::vector<std::uint32_t>> held_by(metrics.num_hosts());
  for (NodeId i = 0; i < n; ++i) {
    for (const std::uint32_t j : fragment.B[i]) held_by[j].push_back(i);
  }
  fragment.D.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    fragment.D.push_back(held_by[fragment.b[i]]);
  }
  UPN_ENSURE(fragment.B.size() == n && fragment.b.size() == n && fragment.D.size() == n,
             "a fragment has one (B_i, b_i, D_i) triple per guest");
  for (NodeId i = 0; i < n; ++i) {
    // Definition 3.2: b_i generated (P_i, t0+1), so b_i holds (P_i, t0) and
    // therefore appears in B_i -- hence i itself is in D_i.
    UPN_INVARIANT(std::binary_search(fragment.D[i].begin(), fragment.D[i].end(), i),
                  "D_i must contain i (b_i holds P_i's own t0-configuration)");
  }
  return fragment;
}

double reference_log2_multiplicity_bound(const ReferenceFragment& fragment, std::uint32_t c) {
  UPN_REQUIRE(c >= 2 && c % 2 == 0,
              "Lemma 3.3 counts C(|D_i|, c/2) for even guest degree c >= 2");
  UPN_REQUIRE(fragment.D.size() == fragment.b.size(),
              "fragment must be fully populated before bounding multiplicity");
  double total = 0.0;
  for (const auto& d : fragment.D) {
    total += log2_binomial(static_cast<double>(d.size()), static_cast<double>(c) / 2.0);
  }
  return total;
}

std::uint32_t reference_count_small_d(const ReferenceFragment& fragment, double threshold) {
  std::uint32_t count = 0;
  for (const auto& d : fragment.D) {
    if (static_cast<double>(d.size()) <= threshold) ++count;
  }
  return count;
}

std::uint64_t reference_fragment_hash(const ReferenceFragment& fragment) {
  std::uint64_t h = mix64(0x4652414746524147ULL ^ fragment.t0);
  for (std::size_t i = 0; i < fragment.B.size(); ++i) {
    for (const std::uint32_t q : fragment.B[i]) {
      h = mix64(h ^ (static_cast<std::uint64_t>(i) << 32 | q));
    }
    h = mix64(h ^ (0xb0b0b0b0ULL + fragment.b[i]));
  }
  return h;
}

Fragment make_fragment(std::uint32_t t0, std::uint32_t num_hosts,
                       const std::vector<std::vector<std::uint32_t>>& B,
                       std::vector<std::uint32_t> b) {
  std::vector<std::size_t> offsets{0};
  std::vector<std::uint32_t> sets;
  for (const auto& set : B) {
    sets.insert(sets.end(), set.begin(), set.end());
    offsets.push_back(sets.size());
  }
  return Fragment{t0, num_hosts, std::move(offsets), std::move(sets), std::move(b)};
}

}  // namespace upn::testing
