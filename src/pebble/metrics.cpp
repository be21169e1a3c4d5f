#include "src/pebble/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace upn {

namespace {

/// Reads a CSR back from one m-bit row per cell: offsets by popcount, then
/// each row's set bits in ascending order -- sorted, duplicate-free procs.
void rows_to_csr(const std::vector<std::uint64_t>& rows, std::size_t cells,
                 std::size_t words_per_row, std::vector<std::size_t>& offsets,
                 std::vector<std::uint32_t>& data) {
  offsets.assign(cells + 1, 0);
  std::size_t total = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    offsets[c] = total;
    for (std::size_t w = 0; w < words_per_row; ++w) {
      total += static_cast<std::size_t>(std::popcount(rows[c * words_per_row + w]));
    }
  }
  offsets[cells] = total;
  data.resize(total);
  std::uint32_t* out = data.data();
  for (std::size_t word = 0; word < rows.size(); ++word) {
    const auto base = static_cast<std::uint32_t>((word % words_per_row) * 64);
    for (std::uint64_t bits = rows[word]; bits != 0; bits &= bits - 1) {
      *out++ = base + static_cast<std::uint32_t>(std::countr_zero(bits));
    }
  }
}

}  // namespace

ProtocolMetrics::ProtocolMetrics(const Protocol& protocol)
    : n_(protocol.num_guests()),
      m_(protocol.num_hosts()),
      T_(protocol.guest_steps()),
      host_steps_(protocol.host_steps()) {
  const std::size_t cells = static_cast<std::size_t>(T_) * n_;
  const std::size_t words_per_row = (std::size_t{m_} + 63) / 64;
  first_gen_.assign(cells, kNeverGenerated);
  // One m-bit row per cell (t-1)*n + i: who holds (P_i, t), and who
  // generates it.  A repeated placement sets a bit already set.
  std::vector<std::uint64_t> holder_rows(cells * words_per_row, 0);
  std::vector<std::uint64_t> generator_rows(cells * words_per_row, 0);
  for (std::uint32_t step = 0; step < host_steps_; ++step) {
    for (const Op& op : protocol.step(step)) {
      const PebbleType& p = op.pebble;
      if (op.kind == OpKind::kSend) continue;  // sender already holds it
      if (op.kind == OpKind::kGenerate && (p.time < 1 || p.time > T_)) {
        throw std::out_of_range{"ProtocolMetrics: generated pebble time out of range"};
      }
      if (p.time == 0) continue;  // a received initial pebble
      const std::size_t cell = index(p.node, p.time - 1);
      const std::size_t word = cell * words_per_row + op.proc / 64;
      const std::uint64_t bit = std::uint64_t{1} << (op.proc % 64);
      holder_rows[word] |= bit;
      ++placements_;
      if (op.kind == OpKind::kGenerate) {
        generator_rows[word] |= bit;
        first_gen_[cell] = std::min(first_gen_[cell], step + 1);
      }
    }
  }
  rows_to_csr(holder_rows, cells, words_per_row, holder_offsets_, holders_);
  rows_to_csr(generator_rows, cells, words_per_row, generator_offsets_, generators_);
}

std::vector<std::uint32_t> ProtocolMetrics::representatives(NodeId i, std::uint32_t t) const {
  if (i >= n_ || t > T_) throw std::out_of_range{"representatives: out of range"};
  if (t == 0) {
    std::vector<std::uint32_t> all(m_);
    for (std::uint32_t q = 0; q < m_; ++q) all[q] = q;
    return all;
  }
  const std::size_t cell = index(i, t - 1);
  return {holders_.begin() + static_cast<std::ptrdiff_t>(holder_offsets_[cell]),
          holders_.begin() + static_cast<std::ptrdiff_t>(holder_offsets_[cell + 1])};
}

std::uint32_t ProtocolMetrics::weight(NodeId i, std::uint32_t t) const {
  if (i >= n_ || t > T_) throw std::out_of_range{"weight: out of range"};
  if (t == 0) return m_;
  const std::size_t cell = index(i, t - 1);
  return static_cast<std::uint32_t>(holder_offsets_[cell + 1] - holder_offsets_[cell]);
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

std::uint32_t ProtocolMetrics::generating_count(std::uint32_t t, std::uint32_t tau) const {
  // first_generation_step range-checks t.
  std::uint32_t count = 0;
  for (NodeId i = 0; i < n_; ++i) {
    const std::uint32_t first = first_generation_step(i, t);
    if (first != kNeverGenerated && first <= tau) ++count;
  }
  return count;
}

std::uint64_t ProtocolMetrics::total_weight_at(std::uint32_t t) const {
  std::uint64_t total = 0;
  for (NodeId i = 0; i < n_; ++i) total += weight(i, t);
  return total;
}

}  // namespace upn
