#include "tests/support/reference_metrics.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "tests/support/protocol_corpus.hpp"

namespace upn::testing {

namespace {

/// Sorts and deduplicates every cell of a filled CSR in place, closing the
/// gaps duplicates leave; drops the spare trailing offset.  Values are
/// processor ids, so a cell whose ids span few 64-bit words is sorted by
/// marking them in a bit row and reading the marks back in order -- linear
/// in the cell; a sparse cell falls back to a comparison sort.
void sort_unique_cells(std::vector<std::size_t>& offsets, std::vector<std::uint32_t>& data,
                       std::uint32_t num_hosts) {
  offsets.pop_back();
  std::vector<std::uint64_t> marks((std::size_t{num_hosts} + 63) / 64, 0);
  std::size_t write = 0;
  std::size_t begin = 0;
  for (std::size_t c = 0; c + 1 < offsets.size(); ++c) {
    const std::size_t end = offsets[c + 1];
    offsets[c] = write;
    std::uint32_t lo = ~std::uint32_t{0};
    std::uint32_t hi = 0;
    for (std::size_t k = begin; k < end; ++k) {
      lo = std::min(lo, data[k] / 64);
      hi = std::max(hi, data[k] / 64);
    }
    if (begin < end && hi - lo < end - begin) {
      for (std::size_t k = begin; k < end; ++k) {
        marks[data[k] / 64] |= std::uint64_t{1} << (data[k] % 64);
      }
      for (std::uint32_t w = lo; w <= hi; ++w) {
        for (std::uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
          data[write++] = w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        }
        marks[w] = 0;
      }
    } else {
      const auto first = data.begin() + static_cast<std::ptrdiff_t>(begin);
      std::sort(first, data.begin() + static_cast<std::ptrdiff_t>(end));
      const auto last = std::unique(first, data.begin() + static_cast<std::ptrdiff_t>(end));
      write = static_cast<std::size_t>(
          std::copy(first, last, data.begin() + static_cast<std::ptrdiff_t>(write)) -
          data.begin());
    }
    begin = end;
  }
  offsets.back() = write;
  data.resize(write);
}

}  // namespace

ReferenceProtocolMetrics::ReferenceProtocolMetrics(const Protocol& protocol)
    : n_(protocol.num_guests()),
      m_(protocol.num_hosts()),
      T_(protocol.guest_steps()),
      host_steps_(protocol.host_steps()) {
  const std::size_t cells = static_cast<std::size_t>(T_) * n_;
  first_gen_.assign(cells, kNeverGenerated);
  holder_offsets_.assign(cells + 2, 0);
  generator_offsets_.assign(cells + 2, 0);

  // Counting pass: cell sizes, range checks and first generation steps.
  for (std::uint32_t step = 0; step < host_steps_; ++step) {
    for (const Op& op : protocol.step(step)) {
      const PebbleType& p = op.pebble;
      switch (op.kind) {
        case OpKind::kSend:
          break;  // sender already holds it
        case OpKind::kReceive:
          if (p.time >= 1) ++holder_offsets_[index(p.node, p.time - 1) + 2];
          break;
        case OpKind::kGenerate: {
          if (p.time < 1 || p.time > T_) {
            throw std::out_of_range{"ProtocolMetrics: generated pebble time out of range"};
          }
          const std::size_t cell = index(p.node, p.time - 1);
          ++holder_offsets_[cell + 2];
          ++generator_offsets_[cell + 2];
          first_gen_[cell] = std::min(first_gen_[cell], step + 1);
          break;
        }
      }
    }
  }
  // Counts sit at offsets[c + 2], so after the prefix sum offsets[c + 1] is
  // cell c's start; the fill pass bumps it to the cell's end -- cell c+1's
  // start -- leaving a CSR in offsets[0 .. cells] without a cursor array.
  std::partial_sum(holder_offsets_.begin(), holder_offsets_.end(), holder_offsets_.begin());
  std::partial_sum(generator_offsets_.begin(), generator_offsets_.end(),
                   generator_offsets_.begin());
  placements_ = holder_offsets_.back();

  // Fill pass.
  holders_.resize(holder_offsets_.back());
  generators_.resize(generator_offsets_.back());
  for (const Op& op : flat_ops(protocol)) {
    if (op.kind == OpKind::kSend || op.pebble.time == 0) continue;
    const std::size_t cell = index(op.pebble.node, op.pebble.time - 1);
    holders_[holder_offsets_[cell + 1]++] = op.proc;
    if (op.kind == OpKind::kGenerate) generators_[generator_offsets_[cell + 1]++] = op.proc;
  }
  sort_unique_cells(holder_offsets_, holders_, m_);
  sort_unique_cells(generator_offsets_, generators_, m_);
}

std::vector<std::uint32_t> ReferenceProtocolMetrics::representatives(NodeId i,
                                                                      std::uint32_t t) const {
  if (t == 0) {
    std::vector<std::uint32_t> all(m_);
    for (std::uint32_t q = 0; q < m_; ++q) all[q] = q;
    return all;
  }
  if (i >= n_ || t > T_) throw std::out_of_range{"representatives: out of range"};
  const std::size_t cell = index(i, t - 1);
  return {holders_.begin() + static_cast<std::ptrdiff_t>(holder_offsets_[cell]),
          holders_.begin() + static_cast<std::ptrdiff_t>(holder_offsets_[cell + 1])};
}

std::uint32_t ReferenceProtocolMetrics::weight(NodeId i, std::uint32_t t) const {
  if (t == 0) return m_;
  if (i >= n_ || t > T_) throw std::out_of_range{"weight: out of range"};
  const std::size_t cell = index(i, t - 1);
  return static_cast<std::uint32_t>(holder_offsets_[cell + 1] - holder_offsets_[cell]);
}

std::vector<std::uint32_t> ReferenceProtocolMetrics::generators(NodeId i,
                                                                 std::uint32_t t) const {
  if (i >= n_ || t >= T_) throw std::out_of_range{"generators: out of range"};
  const std::size_t cell = index(i, t);
  return {generators_.begin() + static_cast<std::ptrdiff_t>(generator_offsets_[cell]),
          generators_.begin() + static_cast<std::ptrdiff_t>(generator_offsets_[cell + 1])};
}

std::uint32_t ReferenceProtocolMetrics::first_generation_step(NodeId i,
                                                              std::uint32_t t) const {
  if (t == 0) return 0;
  if (i >= n_ || t > T_) throw std::out_of_range{"first_generation_step: out of range"};
  return first_gen_[index(i, t - 1)];
}

std::uint64_t ReferenceProtocolMetrics::total_weight_at(std::uint32_t t) const {
  std::uint64_t total = 0;
  for (NodeId i = 0; i < n_; ++i) total += weight(i, t);
  return total;
}

}  // namespace upn::testing
