#include "src/pebble/fragment.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"
#include "src/util/math.hpp"

namespace upn {

Fragment::Fragment(std::uint32_t t0, std::uint32_t num_hosts, std::vector<std::size_t>&& offsets,
                   std::vector<std::uint32_t>&& sets, std::vector<std::uint32_t>&& b)
    : t0_(t0), b_offsets_(std::move(offsets)), b_sets_(std::move(sets)), b_(std::move(b)) {
  UPN_REQUIRE(b_offsets_.size() == b_.size() + 1 && b_offsets_.front() == 0 &&
                  b_offsets_.back() == b_sets_.size(),
              "a fragment has one B_i and one b_i per guest");
  UPN_REQUIRE(std::all_of(b_.begin(), b_.end(), [&](std::uint32_t q) { return q < num_hosts; }) &&
                  std::all_of(b_sets_.begin(), b_sets_.end(),
                              [&](std::uint32_t q) { return q < num_hosts; }),
              "fragment processor ids must lie below the host size");
  // held_by: a counting sort of the (i, q in B_i) pairs by q, filled in
  // ascending i, so each processor's guests come out sorted.
  held_offsets_.assign(std::size_t{num_hosts} + 1, 0);
  for (const std::uint32_t q : b_sets_) ++held_offsets_[q + 1];
  for (std::uint32_t q = 0; q < num_hosts; ++q) held_offsets_[q + 1] += held_offsets_[q];
  held_by_.resize(b_sets_.size());
  std::vector<std::size_t> fill(held_offsets_.begin(), held_offsets_.end() - 1);
  for (NodeId i = 0; i < num_guests(); ++i) {
    for (const std::uint32_t q : B(i)) held_by_[fill[q]++] = i;
  }
}

Fragment extract_fragment(const ProtocolMetrics& metrics, std::uint32_t t0) {
  UPN_OBS_SPAN("pebble.fragment.extract");
  const std::uint32_t n = metrics.num_guests();
  const std::uint32_t m = metrics.num_hosts();
  if (t0 >= metrics.guest_steps()) {
    throw std::out_of_range{"extract_fragment: t0 must be < T"};
  }
  // B_i = Q_S(i, t0), and P(j, t0) sizes: how many guests' t0-pebbles each
  // processor holds.
  std::vector<std::size_t> offsets(std::size_t{n} + 1, 0);
  for (NodeId i = 0; i < n; ++i) offsets[i + 1] = offsets[i] + metrics.weight(i, t0);
  std::vector<std::uint32_t> sets(offsets[n]);
  std::vector<std::uint32_t> load(m, 0);
  for (NodeId i = 0; i < n; ++i) {
    const std::vector<std::uint32_t> reps = metrics.representatives(i, t0);
    std::copy(reps.begin(), reps.end(), sets.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
    for (const std::uint32_t j : reps) ++load[j];
  }

  std::vector<std::uint32_t> b(n);
  for (NodeId i = 0; i < n; ++i) {
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
    b[i] = best;
  }

  Fragment fragment{t0, m, std::move(offsets), std::move(sets), std::move(b)};
  for (NodeId i = 0; i < n; ++i) {
    // Definition 3.2: b_i generated (P_i, t0+1), so b_i holds (P_i, t0) and
    // therefore appears in B_i -- hence i itself is in D_i.
    const std::span<const std::uint32_t> d = fragment.D(i);
    UPN_INVARIANT(std::binary_search(d.begin(), d.end(), i),
                  "D_i must contain i (b_i holds P_i's own t0-configuration)");
  }
  return fragment;
}

double log2_multiplicity_bound(const Fragment& fragment, std::uint32_t c) {
  UPN_REQUIRE(c >= 2 && c % 2 == 0,
              "Lemma 3.3 counts C(|D_i|, c/2) for even guest degree c >= 2");
  double total = 0.0;
  for (NodeId i = 0; i < fragment.num_guests(); ++i) {
    total += log2_binomial(static_cast<double>(fragment.D(i).size()),
                           static_cast<double>(c) / 2.0);
  }
  return total;
}

std::uint32_t count_small_d(const Fragment& fragment, double threshold) {
  std::uint32_t count = 0;
  for (NodeId i = 0; i < fragment.num_guests(); ++i) {
    if (static_cast<double>(fragment.D(i).size()) <= threshold) ++count;
  }
  return count;
}

}  // namespace upn
