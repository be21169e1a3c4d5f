#include "src/routing/path_schedule.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/routing/policies.hpp"
#include "src/util/contracts.hpp"

namespace upn {

namespace {

std::uint64_t link_key(NodeId from, NodeId to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

PathSchedule schedule_paths(const Graph& host, const HhProblem& problem) {
  for (const Demand& demand : problem.demands()) {
    UPN_REQUIRE(demand.src < host.num_nodes() && demand.dst < host.num_nodes(),
                "schedule_paths: demand endpoints must be host nodes");
  }
  DistanceOracle oracle{host};
  PathSchedule schedule;

  // Fix one shortest path per demand.  Link loads are counted flat (one key
  // per traversed link, sort + run length) instead of through a node-per-key
  // tree -- this is an upn_analyze hot-path module.
  std::vector<std::vector<NodeId>> paths;
  paths.reserve(problem.size());
  std::vector<std::uint64_t> traversed_links;
  std::uint32_t packet_id = 0;
  for (const Demand& demand : problem.demands()) {
    std::vector<NodeId> path{demand.src};
    NodeId at = demand.src;
    while (at != demand.dst) {
      const NodeId next = greedy_next_hop(host, oracle, at, demand.dst, packet_id);
      traversed_links.push_back(link_key(at, next));
      path.push_back(next);
      at = next;
    }
    schedule.dilation =
        std::max(schedule.dilation, static_cast<std::uint32_t>(path.size() - 1));
    paths.push_back(std::move(path));
    ++packet_id;
  }
  std::sort(traversed_links.begin(), traversed_links.end());
  for (std::size_t i = 0; i < traversed_links.size();) {
    std::size_t j = i;
    while (j < traversed_links.size() && traversed_links[j] == traversed_links[i]) ++j;
    schedule.congestion = std::max(schedule.congestion, static_cast<std::uint32_t>(j - i));
    i = j;
  }

  // Greedy farthest-to-go-first link scheduling.
  std::vector<std::uint32_t> position(paths.size(), 0);  // index into path
  std::uint32_t remaining = 0;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    if (paths[p].size() > 1) ++remaining;
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> requests;  // (link, packet)
  while (remaining > 0) {
    // Requests per directed link; the farthest-to-go packet wins each link
    // (ties to the lowest packet id).  Sorting by (link, -residual, packet)
    // and sweeping the first entry of each link group selects exactly what
    // the old link->winner tree did, in the same ascending-link order.
    auto residual = [&](std::uint32_t p) {
      return static_cast<std::uint32_t>(paths[p].size() - 1) - position[p];
    };
    requests.clear();
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      if (residual(p) == 0) continue;
      requests.emplace_back(link_key(paths[p][position[p]], paths[p][position[p] + 1]), p);
    }
    std::sort(requests.begin(), requests.end(),
              [&](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                if (residual(a.second) != residual(b.second)) {
                  return residual(a.second) > residual(b.second);
                }
                return a.second < b.second;
              });
    std::vector<std::array<std::uint32_t, 3>> step_moves;
    for (std::size_t i = 0; i < requests.size();) {
      const std::uint64_t key = requests[i].first;
      const std::uint32_t p = requests[i].second;
      while (i < requests.size() && requests[i].first == key) ++i;
      step_moves.push_back({p, paths[p][position[p]], paths[p][position[p] + 1]});
      ++position[p];
      if (residual(p) == 0) --remaining;
      ++schedule.total_moves;
    }
    schedule.moves.push_back(std::move(step_moves));
    ++schedule.makespan;
    // Trivial scheduling achieves C*D; the greedy must never do worse (the
    // slack absorbs rounding on degenerate one-packet instances).
    UPN_INVARIANT(schedule.makespan <= (schedule.congestion + 1u) * (schedule.dilation + 1u) + 8u,
                  "schedule_paths: exceeded the C*D safety bound");
  }
  UPN_ENSURE(schedule.makespan >= schedule.dilation,
             "a packet moves at most one hop per step, so makespan >= dilation");
  UPN_ENSURE(schedule.makespan >= schedule.congestion,
             "a link carries one packet per step, so makespan >= congestion");
  UPN_ENSURE(schedule.moves.size() == schedule.makespan,
             "one move list per schedule step");
  return schedule;
}

bool validate_path_schedule(const Graph& host, const HhProblem& problem,
                            const PathSchedule& schedule) {
  std::vector<NodeId> at;
  at.reserve(problem.size());
  for (const Demand& d : problem.demands()) at.push_back(d.src);
  std::vector<std::uint64_t> used;
  for (const auto& step : schedule.moves) {
    used.clear();
    for (const auto& [packet, from, to] : step) {
      if (packet >= at.size()) return false;
      if (at[packet] != from) return false;
      if (!host.has_edge(from, to)) return false;
      used.push_back(link_key(from, to));
      at[packet] = to;
    }
    // One packet per directed link per step.
    std::sort(used.begin(), used.end());
    if (std::adjacent_find(used.begin(), used.end()) != used.end()) return false;
  }
  for (std::size_t p = 0; p < at.size(); ++p) {
    if (at[p] != problem.demands()[p].dst) return false;
  }
  return true;
}

}  // namespace upn
