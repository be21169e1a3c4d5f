// Off-line scheduling of fixed path systems on arbitrary hosts.
//
// The off-line butterfly router exploits Benes structure; on a general host
// the classic approach fixes one path per packet and schedules link access.
// With congestion C (max packets over one directed link) and dilation D
// (max path length), trivial scheduling gives C*D and Leighton-Maggs-Rao
// prove O(C + D) is always achievable.  We implement the practical greedy:
// per step, every directed link forwards the packet with the longest
// residual path (farthest-to-go first).  The measured makespan lands near
// C + D on the workloads of interest, giving a deterministic, precomputable
// schedule for the "permutations known in advance" of Theorem 2.1 on ANY
// host -- the generalization ablation of the butterfly-specific machinery.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/routing/hh_problem.hpp"
#include "src/topology/graph.hpp"

namespace upn {

struct PathSchedule {
  std::uint32_t congestion = 0;   ///< C of the chosen path system
  std::uint32_t dilation = 0;     ///< D of the chosen path system
  std::uint32_t makespan = 0;     ///< steps of the greedy schedule
  std::uint64_t total_moves = 0;
  /// moves[step] = (packet, from, to) triples, one per directed link.
  std::vector<std::vector<std::array<std::uint32_t, 3>>> moves;

  friend bool operator==(const PathSchedule&, const PathSchedule&) = default;
};

/// Builds shortest paths (BFS with hashed tie-breaking) for every demand and
/// greedily schedules them.  Throws if the host is disconnected.
[[nodiscard]] PathSchedule schedule_paths(const Graph& host, const HhProblem& problem);

/// Replays the schedule: every move follows the packet's position along a
/// host edge, no directed link is used twice per step, and all packets end
/// at their destinations.
[[nodiscard]] bool validate_path_schedule(const Graph& host, const HhProblem& problem,
                                          const PathSchedule& schedule);

}  // namespace upn
