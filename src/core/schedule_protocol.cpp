#include "src/core/schedule_protocol.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "src/core/embedding.hpp"
#include "src/core/guest_step.hpp"
#include "src/routing/offline_butterfly.hpp"
#include "src/topology/butterfly.hpp"

namespace upn {

OfflineProtocolResult make_offline_universal_protocol(const Graph& guest,
                                                      std::uint32_t butterfly_dimension,
                                                      const std::vector<NodeId>& embedding,
                                                      std::uint32_t guest_steps) {
  const ButterflyLayout layout{butterfly_dimension, /*wrapped=*/false};
  const std::uint32_t n = guest.num_nodes();
  const std::uint32_t m = layout.num_nodes();
  if (embedding.size() != n) {
    throw std::invalid_argument{"make_offline_universal_protocol: embedding size mismatch"};
  }

  // The fixed per-step relation: demand d ships its sender's pebble.
  const std::vector<GuestDemand> demands = guest_step_demands(guest, embedding);
  const HhProblem relation = guest_step_relation(guest, embedding, m);
  const OfflineSchedule schedule = route_relation_offline(butterfly_dimension, relation);
  if (!validate_schedule(schedule, relation)) {
    throw std::logic_error{"make_offline_universal_protocol: invalid schedule"};
  }
  const auto guests_of = invert_embedding(embedding, m);

  // Split every multiport step into single-port sub-steps by greedy edge
  // coloring: moves sharing a processor get different colors, and each color
  // class is one sub-step.  The split is schedule-wide, so compute it once.
  constexpr std::uint32_t kMaxColors = 16;
  std::vector<std::vector<const ScheduledMove*>> sub_steps;
  std::vector<std::uint32_t> node_used(m);  // colors incident to each processor
  std::size_t first = 0;                    // sub-step of the current step's color 0
  for (std::size_t i = 0; i < schedule.moves.size(); ++i) {
    const ScheduledMove& move = schedule.moves[i];
    if (i == 0 || move.step != schedule.moves[i - 1].step) {
      std::fill(node_used.begin(), node_used.end(), 0u);
      first = sub_steps.size();
    }
    const auto color =
        static_cast<std::uint32_t>(std::countr_one(node_used[move.from] | node_used[move.to]));
    if (color >= kMaxColors) {
      throw std::logic_error{"make_offline_universal_protocol: degree exceeded expectations"};
    }
    node_used[move.from] |= 1u << color;
    node_used[move.to] |= 1u << color;
    if (first + color == sub_steps.size()) sub_steps.emplace_back();
    sub_steps[first + color].push_back(&move);
  }
  const auto single_port_steps = static_cast<std::uint32_t>(sub_steps.size());

  OfflineProtocolResult result{Protocol{n, m, guest_steps}, schedule.num_steps,
                               single_port_steps + embedding_load(embedding, m), 0.0};
  result.expansion_factor =
      schedule.num_steps == 0
          ? 1.0
          : static_cast<double>(single_port_steps) / schedule.num_steps;

  std::vector<Op> step_ops;  // one color class's sends and receives
  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    // Communication: replay the colored schedule; demand d carries the
    // pebble (its sender, t-1).
    for (const auto& matching : sub_steps) {
      step_ops.clear();
      for (const ScheduledMove* move : matching) {
        const PebbleType pebble{demands[move->packet].sender, t - 1};
        step_ops.push_back(Op{OpKind::kSend, move->from, pebble, move->to});
        step_ops.push_back(Op{OpKind::kReceive, move->to, pebble, move->from});
      }
      result.protocol.add_step(step_ops);
    }
    // Computation: one generate per hosted guest, round-robin across hosts.
    emit_generate_rounds(&result.protocol, guests_of, t);
  }
  return result;
}

}  // namespace upn
