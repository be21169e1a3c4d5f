// Protocol metrics: the quantities the lower-bound proof reasons about.
//
// For a protocol S (Section 3.1/3.2):
//   Q_S(i, t)  -- representatives: processors holding a pebble (P_i, t) at
//                 the end of S;
//   Q'_S(i, t) -- generators: members of Q_S(i, t) that generate (P_i, t+1);
//   q_{i,t}    -- |Q_S(i, t)| (Definition 3.11: the weight of (P_i, t));
//   E_t(tau)   -- Definition 3.16: guests whose generating pebble (P_i, t)
//                 exists after tau host steps (via first_generation_step).
//
// Storage, per (i, t) cell with t >= 1: one m-bit holder row, its popcount
// (q_{i,t}) and the first generation step; plus the generator sets as a CSR
// built from the generate ops alone (about n T of them).  A bit row is
// smaller than 32-bit ids once more than 1/32 of the processors hold a
// pebble: at t = T/2 of run_paper_pipeline's protocol 29% of them do at
// m=192 and 9% at m=1024.
#pragma once

#include <cstdint>
#include <vector>

#include "src/pebble/protocol.hpp"

namespace upn {

/// Sentinel for "never generated".
inline constexpr std::uint32_t kNeverGenerated = 0xffffffffu;

class ProtocolMetrics {
 public:
  /// Replays the protocol once, marking the holders of each (i, t) in one
  /// m-bit row and collecting the (cell, proc) pair of every generate, then
  /// sorts those pairs into the generator sets.  The protocol is assumed
  /// valid (run validate_protocol first).
  explicit ProtocolMetrics(const Protocol& protocol);

  [[nodiscard]] std::uint32_t num_guests() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t num_hosts() const noexcept { return m_; }
  [[nodiscard]] std::uint32_t guest_steps() const noexcept { return T_; }
  [[nodiscard]] std::uint32_t host_steps() const noexcept { return host_steps_; }

  /// k = T' m / (T n), Section 3.1.
  [[nodiscard]] double inefficiency() const noexcept {
    return (T_ == 0 || n_ == 0)
               ? 0.0
               : static_cast<double>(host_steps_) * m_ /
                     (static_cast<double>(T_) * n_);
  }

  /// Q_S(i, t): sorted processor ids holding (P_i, t) at the end: the set
  /// bits of the cell's holder row, in ascending order.  For t = 0 this is
  /// all processors (initial pebbles) and is returned as such.
  /// This and the queries below throw std::out_of_range for i >= n or
  /// t > T (t >= T for generators), t = 0 included.
  [[nodiscard]] std::vector<std::uint32_t> representatives(NodeId i, std::uint32_t t) const;

  /// q_{i,t} = |Q_S(i, t)|.
  [[nodiscard]] std::uint32_t weight(NodeId i, std::uint32_t t) const;

  /// Q'_S(i, t): sorted processors that generate (P_i, t+1) at some step.
  [[nodiscard]] std::vector<std::uint32_t> generators(NodeId i, std::uint32_t t) const;

  /// Earliest host step (1-based count of completed steps) after which a
  /// generated pebble (P_i, t) exists; kNeverGenerated if none.  For t = 0
  /// returns 0 (initial pebbles exist from the start).
  [[nodiscard]] std::uint32_t first_generation_step(NodeId i, std::uint32_t t) const;

  /// Sum over all i of q_{i,t}.
  [[nodiscard]] std::uint64_t total_weight_at(std::uint32_t t) const;

  /// Total pebbles placed (generated + received + initial are excluded):
  /// bounded by T' * m in the paper's counting.
  [[nodiscard]] std::uint64_t total_placements() const noexcept { return placements_; }

 private:
  [[nodiscard]] std::size_t index(NodeId i, std::uint32_t t) const noexcept {
    return static_cast<std::size_t>(t) * n_ + i;
  }

  std::uint32_t n_;
  std::uint32_t m_;
  std::uint32_t T_;
  std::uint32_t host_steps_ = 0;
  std::uint64_t placements_ = 0;
  std::size_t words_per_row_;
  /// One m-bit row per cell (t-1)*n + i for t >= 1: bit q of
  /// holder_rows_[c * words_per_row_ ..] is set iff proc q holds (P_i, t).
  std::vector<std::uint64_t> holder_rows_;
  /// holder_weights_[c]: the row's popcount, q_{i,t}.
  std::vector<std::uint32_t> holder_weights_;
  /// CSR over cells t*n + i for t <= T-1: sorted procs generating (P_i, t+1).
  std::vector<std::size_t> generator_offsets_;
  std::vector<std::uint32_t> generators_;
  /// first_gen_[(t-1)*n + i]: earliest step count after which (P_i,t) exists.
  std::vector<std::uint32_t> first_gen_;
};

}  // namespace upn
