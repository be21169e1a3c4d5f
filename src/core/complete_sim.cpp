#include "src/core/complete_sim.hpp"

#include <stdexcept>

#include "src/core/embedding.hpp"
#include "src/core/guest_step.hpp"
#include "src/util/rng.hpp"

namespace upn {

std::vector<NodeId> complete_step_permutation(std::uint32_t n, std::uint32_t t,
                                              std::uint64_t pattern_seed) {
  Rng rng{mix64(pattern_seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)))};
  return rng.permutation(n);
}

Config complete_next_config(Config own, Config received) noexcept {
  const Config inputs[1] = {received};
  return next_config(own, inputs);
}

std::vector<Config> run_complete_reference(std::uint32_t n, std::uint64_t seed,
                                           std::uint64_t pattern_seed, std::uint32_t steps) {
  std::vector<Config> configs(n), next(n);
  for (NodeId i = 0; i < n; ++i) configs[i] = initial_config(seed, i);
  for (std::uint32_t t = 1; t <= steps; ++t) {
    const auto perm = complete_step_permutation(n, t, pattern_seed);
    // received[j] = config of the unique i with perm[i] = j.
    std::vector<Config> received(n);
    for (NodeId i = 0; i < n; ++i) received[perm[i]] = configs[i];
    for (NodeId j = 0; j < n; ++j) next[j] = complete_next_config(configs[j], received[j]);
    configs.swap(next);
  }
  return configs;
}

CompleteSimResult run_complete_simulation(std::uint32_t n, const Graph& host,
                                          const std::vector<NodeId>& embedding,
                                          std::uint32_t guest_steps, RoutingPolicy& policy,
                                          PortModel port_model, std::uint64_t seed,
                                          std::uint64_t pattern_seed) {
  if (embedding.size() != n) {
    throw std::invalid_argument{"run_complete_simulation: embedding size mismatch"};
  }
  const std::uint32_t m = host.num_nodes();
  const std::uint32_t load = embedding_load(embedding, m);
  SyncRouter router{host, port_model};

  CompleteSimResult result;
  result.guest_steps = guest_steps;

  std::vector<Config> configs(n), next(n), received(n);
  for (NodeId i = 0; i < n; ++i) configs[i] = initial_config(seed, i);

  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    const auto perm = complete_step_permutation(n, t, pattern_seed);
    // Each guest sends exactly one message: a ceil(n/m)-relation on hosts
    // whose pattern is only known now -- the online-routing case.
    std::vector<GuestDemand> demands;
    std::vector<Config> payloads;
    for (NodeId i = 0; i < n; ++i) {
      const NodeId j = perm[i];
      if (embedding[i] == embedding[j]) {
        received[j] = configs[i];  // local delivery
      } else {
        demands.push_back(GuestDemand{i, j, embedding[i], embedding[j], j});
        payloads.push_back(configs[i]);
      }
    }
    const DeliverFn deliver = [&](std::uint32_t d, Config payload) {
      received[demands[d].receiver] = payload;
    };
    result.host_steps += route_demands(router, policy, {}, {demands, payloads}, deliver).steps;
    for (NodeId j = 0; j < n; ++j) next[j] = complete_next_config(configs[j], received[j]);
    configs.swap(next);
    result.host_steps += load;
  }

  result.slowdown = per_guest_step(result.host_steps, guest_steps);
  result.inefficiency = n == 0 ? 0.0 : result.slowdown * m / n;
  result.configs_match =
      run_complete_reference(n, seed, pattern_seed, guest_steps) == configs;
  return result;
}

}  // namespace upn
