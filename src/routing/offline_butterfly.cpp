#include "src/routing/offline_butterfly.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/routing/benes.hpp"
#include "src/routing/decompose.hpp"

namespace upn {

namespace {

/// Tracks one packet through the three phases.
struct Tracked {
  NodeId src;
  NodeId dst;
  std::uint32_t batch = 0;  ///< Benes batch index (phase 2)
};

constexpr std::uint32_t kNoIndex = 0xffffffffu;

/// Pipelined column traffic: moves every queued packet one level toward
/// level 0 (gather) or toward its destination level (scatter), one packet
/// per directed straight edge per step.  Appends moves and returns the step
/// at which the phase completed.
///
/// The per-node FIFO is a flat intrusive linked list (head/tail cursor per
/// node, one next-pointer per packet) -- each packet waits in at most one
/// queue, so a single qnext array threads every queue at once and the whole
/// phase runs without heap traffic inside the step loop.
std::uint32_t run_column_phase(const ButterflyLayout& layout, std::vector<Tracked>& packets,
                               std::vector<NodeId>& position, bool gather,
                               std::uint32_t start_step, std::vector<ScheduledMove>& moves) {
  const std::uint32_t levels = layout.levels();
  std::vector<std::uint32_t> qhead(layout.num_nodes(), kNoIndex);
  std::vector<std::uint32_t> qtail(layout.num_nodes(), kNoIndex);
  std::vector<std::uint32_t> qnext(packets.size(), kNoIndex);
  auto push_back = [&](NodeId node, std::uint32_t p) {
    qnext[p] = kNoIndex;
    if (qtail[node] == kNoIndex) {
      qhead[node] = p;
    } else {
      qnext[qtail[node]] = p;
    }
    qtail[node] = p;
  };
  auto pop_front = [&](NodeId node) -> std::uint32_t {
    const std::uint32_t p = qhead[node];
    qhead[node] = qnext[p];
    if (qhead[node] == kNoIndex) qtail[node] = kNoIndex;
    return p;
  };
  std::uint32_t pending = 0;
  for (std::uint32_t p = 0; p < packets.size(); ++p) {
    const std::uint32_t target_level =
        gather ? 0u : layout.level_of(packets[p].dst);
    if (layout.level_of(position[p]) != target_level) {
      push_back(position[p], p);
      ++pending;
    }
  }
  std::uint32_t step = start_step;
  std::vector<ScheduledMove> this_step;
  while (pending > 0) {
    // Collect this step's moves first, then apply, so a packet moves at most
    // one level per step.
    this_step.clear();
    for (std::uint32_t level = 0; level < levels; ++level) {
      for (std::uint32_t row = 0; row < layout.rows(); ++row) {
        const NodeId node = layout.id(level, row);
        if (qhead[node] == kNoIndex) continue;
        const std::uint32_t next_level = gather ? level - 1 : level + 1;
        const NodeId next = layout.id(next_level, row);
        const std::uint32_t p = pop_front(node);
        this_step.push_back(ScheduledMove{step, node, next, p});
      }
    }
    for (const ScheduledMove& move : this_step) {
      position[move.packet] = move.to;
      const std::uint32_t target_level =
          gather ? 0u : layout.level_of(packets[move.packet].dst);
      if (layout.level_of(move.to) == target_level) {
        --pending;
      } else {
        push_back(move.to, move.packet);
      }
      moves.push_back(move);
    }
    ++step;
  }
  return step;
}

/// FIFO buckets of packet ids keyed by (src row, dst row), backed by one
/// stable-sorted index array: packets sharing a key stay in insertion
/// (ascending id) order, and each bucket is a cursor into its contiguous
/// slice.  Replaces a std::map of std::deques with two flat arrays and a
/// binary search per take().
class RowBuckets {
 public:
  RowBuckets(const std::vector<Tracked>& packets, const ButterflyLayout& layout) {
    order_.resize(packets.size());
    std::vector<std::uint64_t> key(packets.size());
    for (std::uint32_t p = 0; p < packets.size(); ++p) {
      order_[p] = p;
      key[p] = (static_cast<std::uint64_t>(layout.row_of(packets[p].src)) << 32) |
               layout.row_of(packets[p].dst);
    }
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return key[a] < key[b]; });
    for (std::uint32_t i = 0; i < order_.size(); ++i) {
      const std::uint64_t k = key[order_[i]];
      if (keys_.empty() || keys_.back() != k) {
        keys_.push_back(k);
        cursor_.push_back(i);
      }
    }
  }

  /// Pops the oldest packet bucketed under (src_row, dst_row).  Every round
  /// demand comes from decomposing exactly these packets, so the bucket is
  /// never empty when asked.
  [[nodiscard]] std::uint32_t take(std::uint32_t src_row, std::uint32_t dst_row) {
    const std::uint64_t k = (static_cast<std::uint64_t>(src_row) << 32) | dst_row;
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
    const std::size_t bucket = static_cast<std::size_t>(it - keys_.begin());
    return order_[cursor_[bucket]++];
  }

 private:
  std::vector<std::uint32_t> order_;    // packet ids, stably sorted by key
  std::vector<std::uint64_t> keys_;     // distinct keys, ascending
  std::vector<std::uint32_t> cursor_;   // next unconsumed index per key
};

}  // namespace

OfflineSchedule route_relation_offline(std::uint32_t dimension, const HhProblem& problem) {
  const ButterflyLayout layout{dimension, /*wrapped=*/false};
  if (problem.num_nodes() != layout.num_nodes()) {
    throw std::invalid_argument{"route_relation_offline: demand node count mismatch"};
  }
  OfflineSchedule schedule;
  schedule.layout = layout;

  std::vector<Tracked> packets;
  packets.reserve(problem.size());
  std::vector<NodeId> position;
  position.reserve(problem.size());
  for (const Demand& d : problem.demands()) {
    packets.push_back(Tracked{d.src, d.dst});
    position.push_back(d.src);
  }
  // Every packet makes at most (levels-1) gather + 2d Benes + (levels-1)
  // scatter hops; reserving up front keeps the emission loops realloc-free.
  schedule.moves.reserve(problem.size() *
                         (2 * static_cast<std::size_t>(layout.levels() - 1) + 2 * dimension));

  // ---- Phase 1: gather every packet to level 0 of its source column. ----
  std::uint32_t step =
      run_column_phase(layout, packets, position, /*gather=*/true, 0, schedule.moves);

  // ---- Phase 2: Benes-route the row-to-row relation, pipelined. ----
  // Row relation: one demand per packet.
  HhProblem row_relation{layout.rows()};
  for (const Tracked& p : packets) {
    row_relation.add(layout.row_of(p.src), layout.row_of(p.dst));
  }
  const auto rounds = decompose_into_permutations(row_relation);
  schedule.num_batches = static_cast<std::uint32_t>(rounds.size());

  // Assign concrete packets to rounds: bucket packets by (src row, dst row).
  RowBuckets buckets{packets, layout};
  // batch_rows[b]: for each participating packet, its Benes path.
  const std::uint32_t d = dimension;
  const std::uint32_t rows = layout.rows();
  std::vector<std::uint32_t> perm(rows);
  std::vector<char> dst_used(rows);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> packet_of_row(rows);
  for (std::uint32_t b = 0; b < rounds.size(); ++b) {
    // Pad the partial permutation to a full one.
    std::fill(perm.begin(), perm.end(), 0xffffffffu);
    std::fill(dst_used.begin(), dst_used.end(), char{0});
    std::fill(packet_of_row.begin(), packet_of_row.end(), std::pair{0xffffffffu, 0u});
    for (const Demand& demand : rounds[b]) {
      perm[demand.src] = demand.dst;
      dst_used[demand.dst] = 1;
      packet_of_row[demand.src] = {buckets.take(demand.src, demand.dst), 1u};
    }
    std::uint32_t free_dst = 0;
    for (std::uint32_t r = 0; r < rows; ++r) {
      if (perm[r] != 0xffffffffu) continue;
      while (dst_used[free_dst]) ++free_dst;
      perm[r] = free_dst;
      dst_used[free_dst] = 1;
    }
    const BenesPaths paths = benes_route(perm);
    // Batch b's stage s runs at global step `step + b + s`.  Map Benes level
    // onto butterfly level: lambda(s) = s for s <= d, 2d - s beyond.
    for (std::uint32_t r = 0; r < rows; ++r) {
      const auto [packet_id, real] = packet_of_row[r];
      if (!real) continue;
      for (std::uint32_t s = 0; s < 2 * d; ++s) {
        const std::uint32_t level_from = s <= d ? s : 2 * d - s;
        const std::uint32_t level_to = (s + 1) <= d ? (s + 1) : 2 * d - (s + 1);
        schedule.moves.push_back(
            ScheduledMove{step + b + s, layout.id(level_from, paths.rows[r][s]),
                          layout.id(level_to, paths.rows[r][s + 1]), packet_id});
      }
      position[packet_id] = layout.id(0, perm[r]);
    }
  }
  if (!rounds.empty()) {
    step += static_cast<std::uint32_t>(rounds.size()) - 1 + 2 * d;
  }

  // ---- Phase 3: scatter packets up their destination columns. ----
  step = run_column_phase(layout, packets, position, /*gather=*/false, step, schedule.moves);

  schedule.num_steps = step;
  // Stable counting sort by step: steps are dense small integers, so this
  // beats a comparison sort and preserves the emission order within a step.
  {
    std::vector<std::uint32_t> start(step + 2, 0);
    for (const ScheduledMove& move : schedule.moves) ++start[move.step + 1];
    for (std::uint32_t s = 1; s < start.size(); ++s) start[s] += start[s - 1];
    std::vector<ScheduledMove> sorted(schedule.moves.size());
    for (const ScheduledMove& move : schedule.moves) sorted[start[move.step]++] = move;
    schedule.moves = std::move(sorted);
  }
  return schedule;
}

bool validate_schedule(const OfflineSchedule& schedule, const HhProblem& problem) {
  const ButterflyLayout& layout = schedule.layout;
  std::vector<NodeId> position;
  position.reserve(problem.size());
  for (const Demand& d : problem.demands()) position.push_back(d.src);

  // Group moves by step (they are sorted).  Per-step directed-link loads are
  // checked by sorting the step's link keys and scanning for duplicates --
  // no associative container needed.
  std::size_t i = 0;
  std::vector<std::uint64_t> used_links;
  while (i < schedule.moves.size()) {
    const std::uint32_t step = schedule.moves[i].step;
    used_links.clear();
    for (; i < schedule.moves.size() && schedule.moves[i].step == step; ++i) {
      const ScheduledMove& move = schedule.moves[i];
      if (move.packet >= position.size()) return false;
      if (position[move.packet] != move.from) return false;  // teleport
      // Butterfly edge check: adjacent levels, row unchanged or flipping the
      // lower level's bit.
      const std::uint32_t lf = layout.level_of(move.from);
      const std::uint32_t lt = layout.level_of(move.to);
      if (lf != lt + 1 && lt != lf + 1) return false;
      const std::uint32_t low = std::min(lf, lt);
      const std::uint32_t delta = layout.row_of(move.from) ^ layout.row_of(move.to);
      if (delta != 0 && delta != (1u << low)) return false;
      used_links.push_back((static_cast<std::uint64_t>(move.from) << 32) | move.to);
      position[move.packet] = move.to;
    }
    std::sort(used_links.begin(), used_links.end());
    if (std::adjacent_find(used_links.begin(), used_links.end()) != used_links.end()) {
      return false;  // directed link overload within one step
    }
  }
  for (std::size_t p = 0; p < position.size(); ++p) {
    if (position[p] != problem.demands()[p].dst) return false;
  }
  return true;
}

}  // namespace upn
