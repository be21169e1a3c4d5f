#include "src/pebble/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"

namespace upn {

ProtocolMetrics::ProtocolMetrics(const Protocol& protocol)
    : n_(protocol.num_guests()),
      m_(protocol.num_hosts()),
      T_(protocol.guest_steps()),
      host_steps_(protocol.host_steps()),
      words_per_row_((std::size_t{m_} + 63) / 64) {
  UPN_OBS_SPAN("pebble.metrics.build");
  const std::size_t cells = static_cast<std::size_t>(T_) * n_;
  UPN_REQUIRE(cells <= 0xffffffffu, "ProtocolMetrics: T * n cells must fit 32 bits");
  first_gen_.assign(cells, kNeverGenerated);
  // One m-bit row per cell (t-1)*n + i: who holds (P_i, t).  A repeated
  // placement sets a bit already set.  Each generate also records
  // cell << 32 | proc, about n T pairs in all.
  holder_rows_.assign(cells * words_per_row_, 0);
  std::vector<std::uint64_t> generated;
  for (std::uint32_t step = 0; step < host_steps_; ++step) {
    for (const Op& op : protocol.step(step)) {
      const PebbleType& p = op.pebble;
      if (op.kind == OpKind::kSend) continue;  // sender already holds it
      if (op.kind == OpKind::kGenerate && (p.time < 1 || p.time > T_)) {
        throw std::out_of_range{"ProtocolMetrics: generated pebble time out of range"};
      }
      if (p.time == 0) continue;  // a received initial pebble
      const std::size_t cell = index(p.node, p.time - 1);
      holder_rows_[cell * words_per_row_ + op.proc / 64] |= std::uint64_t{1} << (op.proc % 64);
      ++placements_;
      if (op.kind == OpKind::kGenerate) {
        generated.push_back(std::uint64_t{cell} << 32 | op.proc);
        first_gen_[cell] = std::min(first_gen_[cell], step + 1);
      }
    }
  }
  holder_weights_.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    std::uint32_t weight = 0;
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      weight += static_cast<std::uint32_t>(std::popcount(holder_rows_[c * words_per_row_ + w]));
    }
    holder_weights_[c] = weight;
  }
  // Sorted and deduplicated, the pairs are the generator sets cell by cell.
  std::sort(generated.begin(), generated.end());
  generated.erase(std::unique(generated.begin(), generated.end()), generated.end());
  generator_offsets_.assign(cells + 1, 0);
  generators_.resize(generated.size());
  for (std::size_t k = 0; k < generated.size(); ++k) {
    ++generator_offsets_[(generated[k] >> 32) + 1];
    generators_[k] = static_cast<std::uint32_t>(generated[k]);
  }
  for (std::size_t c = 0; c < cells; ++c) generator_offsets_[c + 1] += generator_offsets_[c];
}

std::vector<std::uint32_t> ProtocolMetrics::representatives(NodeId i, std::uint32_t t) const {
  if (i >= n_ || t > T_) throw std::out_of_range{"representatives: out of range"};
  std::vector<std::uint32_t> procs;
  if (t == 0) {
    procs.resize(m_);
    for (std::uint32_t q = 0; q < m_; ++q) procs[q] = q;
    return procs;
  }
  const std::size_t cell = index(i, t - 1);
  procs.reserve(holder_weights_[cell]);
  const std::uint64_t* row = &holder_rows_[cell * words_per_row_];
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    const auto base = static_cast<std::uint32_t>(w * 64);
    for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
      procs.push_back(base + static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
  }
  return procs;
}

std::uint32_t ProtocolMetrics::weight(NodeId i, std::uint32_t t) const {
  if (i >= n_ || t > T_) throw std::out_of_range{"weight: out of range"};
  if (t == 0) return m_;
  return holder_weights_[index(i, t - 1)];
}

std::vector<std::uint32_t> ProtocolMetrics::generators(NodeId i, std::uint32_t t) const {
  if (i >= n_ || t >= T_) throw std::out_of_range{"generators: out of range"};
  const std::size_t cell = index(i, t);
  return {generators_.begin() + static_cast<std::ptrdiff_t>(generator_offsets_[cell]),
          generators_.begin() + static_cast<std::ptrdiff_t>(generator_offsets_[cell + 1])};
}

std::uint32_t ProtocolMetrics::first_generation_step(NodeId i, std::uint32_t t) const {
  if (i >= n_ || t > T_) throw std::out_of_range{"first_generation_step: out of range"};
  if (t == 0) return 0;
  return first_gen_[index(i, t - 1)];
}

std::uint64_t ProtocolMetrics::total_weight_at(std::uint32_t t) const {
  std::uint64_t total = 0;
  for (NodeId i = 0; i < n_; ++i) total += weight(i, t);
  return total;
}

}  // namespace upn
