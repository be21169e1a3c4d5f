// The counting argument, observed: a census of fragments across guests.
//
// Section 3.2's engine is: (i) every k-inefficient simulation is consistent
// with a fragment from a SMALL set (|A| <= 2^{rnk} choices of B, (qk)^n of
// B'), and (ii) each fragment is consistent with FEW guests (multiplicity
// X, Lemma 3.3).  Therefore few guests are simulable: |G(k)| <= X * Y.
//
// This module runs the pipeline on many concrete guests G_1..G_K in U[G_0]:
// simulate each, extract the fragment at a critical time, canonically hash
// the (B, B') data, and tabulate (a) how many distinct fragments appear
// (an empirical footprint of A), and (b) the per-fragment Lemma 3.3
// multiplicity bound, against the counting-chain values at the same (n, m,
// k).  It is the proof's bookkeeping made executable at laptop scale.
#pragma once

#include <cstdint>
#include <vector>

#include "src/lowerbound/counting.hpp"
#include "src/pebble/fragment.hpp"
#include "src/topology/g0.hpp"
#include "src/util/par.hpp"

namespace upn {

struct FragmentCensusRow {
  std::uint64_t fragment_hash = 0;  ///< canonical hash of (B, B')
  double log2_multiplicity = 0;     ///< Lemma 3.3 bound for this fragment
  std::uint64_t sum_b = 0;          ///< sum |B_i| (Main Lemma (2) quantity)
  std::uint32_t small_d = 0;        ///< #i with |D_i| <= n/sqrt(m)
};

struct FragmentCensus {
  std::uint32_t guests = 0;            ///< simulations run
  std::uint32_t distinct_fragments = 0;
  double mean_inefficiency = 0;        ///< measured k across simulations
  double worst_log2_multiplicity = 0;  ///< max over fragments
  double log2_a_bound = 0;             ///< 2^{rnk} from Lemma 3.13 at mean k
  double log2_guest_space = 0;         ///< |U[G_0]| lower bound
  std::vector<FragmentCensusRow> rows;
};

/// Simulates `num_guests` random members of U[G_0] on a butterfly host of
/// dimension `butterfly_dimension`, extracts one fragment each (at guest
/// time T/2) and tabulates the census.  T is the simulated length.  One
/// pool task per sampled guest: guest g draws its random regular graph,
/// embedding, and simulation seed from its own Rng::stream(seed, g);
/// per-guest rows are collected by guest index and the aggregate statistics
/// (distinct count, mean k) are reduced serially in that order, so the
/// census is byte-identical for every pool size.
[[nodiscard]] FragmentCensus run_fragment_census_par(
    const G0& g0, std::uint32_t butterfly_dimension, std::uint32_t num_guests,
    std::uint32_t T, std::uint64_t seed, ThreadPool& pool,
    const CountingConstants& constants = {});

/// Canonical order-sensitive hash of a fragment's (B, B') content.
[[nodiscard]] std::uint64_t fragment_hash(const Fragment& fragment);

}  // namespace upn
