// Fragments (Definition 3.2) and the multiplicity bound (Lemma 3.3).
//
// A fragment (B, B', D) records, for a critical guest time t_0:
//   B_i  = Q_S(i, t_0)       -- the representatives of P_i,
//   b_i  in Q'_S(i, t_0)     -- one generator of (P_i, t_0 + 1),
//   D_i  = { i' : b_i in B_{i'} } -- guests whose configuration b_i holds.
//
// Lemma 3.3: the number of c-regular guests consistent with a fixed fragment
// is at most prod_i C(|D_i|, c/2) -- because Q_{b_i} must hold the t_0-
// configurations of all neighbors of P_i, so P_i's outgoing (Eulerian-
// oriented) edges all end inside D_i.
//
// Storage: B is one CSR over guests (Sigma |B_i| processor ids), and the
// transpose held_by -- for each processor, the sorted guests whose
// t_0-pebble it holds -- one CSR over processors.  D_i is held_by[b_i], so
// D(i) is a view into held_by, not a copy: memory is 2 Sigma |B_i| ids plus
// the offsets, linear in what the protocol places.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/pebble/metrics.hpp"

namespace upn {

class Fragment {
 public:
  /// B_i = sets[offsets[i] .. offsets[i+1]) (offsets has n + 1 entries),
  /// b_i = b[i], every processor id below `num_hosts`.  Builds held_by.
  Fragment(std::uint32_t t0, std::uint32_t num_hosts, std::vector<std::size_t>&& offsets,
           std::vector<std::uint32_t>&& sets, std::vector<std::uint32_t>&& b);

  [[nodiscard]] std::uint32_t t0() const noexcept { return t0_; }
  [[nodiscard]] std::uint32_t num_guests() const noexcept {
    return static_cast<std::uint32_t>(b_.size());
  }
  /// B_i, sorted processor ids.
  [[nodiscard]] std::span<const std::uint32_t> B(NodeId i) const {
    return {b_sets_.data() + b_offsets_[i], b_offsets_[i + 1] - b_offsets_[i]};
  }
  /// b_i (one generator of (P_i, t_0 + 1)).
  [[nodiscard]] std::uint32_t b(NodeId i) const { return b_[i]; }
  /// D_i = held_by[b_i], sorted guest ids.
  [[nodiscard]] std::span<const std::uint32_t> D(NodeId i) const {
    const std::uint32_t q = b_[i];
    return {held_by_.data() + held_offsets_[q], held_offsets_[q + 1] - held_offsets_[q]};
  }

  /// Sum of |B_i| (bounded by q n k in the Main Lemma, part 2).
  [[nodiscard]] std::uint64_t total_b_size() const noexcept { return b_sets_.size(); }

 private:
  std::uint32_t t0_;
  std::vector<std::size_t> b_offsets_;
  std::vector<std::uint32_t> b_sets_;
  std::vector<std::uint32_t> b_;
  std::vector<std::size_t> held_offsets_;
  std::vector<std::uint32_t> held_by_;
};
/// Extracts the fragment at t_0 choosing, for each i, the generator b_i
/// that minimizes |P(b_i, t_0)| (the best case for the Main Lemma's
/// property 3).  t_0 must satisfy 0 <= t_0 < T and every (P_i, t_0+1) must
/// have at least one generator; throws otherwise.
[[nodiscard]] Fragment extract_fragment(const ProtocolMetrics& metrics, std::uint32_t t0);

/// log2 of Lemma 3.3's multiplicity bound prod_i C(|D_i|, c/2).
[[nodiscard]] double log2_multiplicity_bound(const Fragment& fragment, std::uint32_t c);

/// How many i have |D_i| <= threshold (Main Lemma, property 3 counts the i
/// with |D_i| <= n / sqrt(m)).
[[nodiscard]] std::uint32_t count_small_d(const Fragment& fragment, double threshold);

}  // namespace upn
