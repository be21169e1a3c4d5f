// The pre-rewrite ProtocolMetrics construction, preserved as the
// differential-testing oracle for the bit-row builder
// (src/pebble/metrics.cpp).
//
// It counts every placement per (i, t) cell, prefix-sums the counts into
// CSR offsets, scatters the processor ids into their cells, and then sorts
// and deduplicates each cell.  It lives in tests/ support code, outside the
// hot-path analysis ratchet, and must never be "optimized": its value is
// that it computes Q_S(i, t), Q'_S(i, t) and the first generation steps the
// slow, obviously-correct way.  tests/metrics_differential_test.cpp asserts
// that every query answers the same on both.
//
// The API mirrors ProtocolMetrics' queries.  The only intended difference:
// at t = 0 this oracle answers for any guest index i, while ProtocolMetrics
// range-checks i there too.  Differential queries stay in range.
#pragma once

#include <cstdint>
#include <vector>

#include "src/pebble/metrics.hpp"
#include "src/pebble/protocol.hpp"

namespace upn::testing {

/// Reference semantics of ProtocolMetrics.
class ReferenceProtocolMetrics {
 public:
  explicit ReferenceProtocolMetrics(const Protocol& protocol);

  [[nodiscard]] std::vector<std::uint32_t> representatives(NodeId i, std::uint32_t t) const;
  [[nodiscard]] std::uint32_t weight(NodeId i, std::uint32_t t) const;
  [[nodiscard]] std::vector<std::uint32_t> generators(NodeId i, std::uint32_t t) const;
  [[nodiscard]] std::uint32_t first_generation_step(NodeId i, std::uint32_t t) const;
  [[nodiscard]] std::uint64_t total_weight_at(std::uint32_t t) const;
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
  std::vector<std::size_t> holder_offsets_;
  std::vector<std::uint32_t> holders_;
  std::vector<std::size_t> generator_offsets_;
  std::vector<std::uint32_t> generators_;
  std::vector<std::uint32_t> first_gen_;
};

}  // namespace upn::testing
