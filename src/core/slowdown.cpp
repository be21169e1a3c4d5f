#include "src/core/slowdown.hpp"

#include <cmath>

#include "src/core/embedding.hpp"
#include "src/topology/butterfly.hpp"
#include "src/util/contracts.hpp"

namespace upn {

SlowdownRow measure_slowdown(const Graph& guest, const Graph& host,
                             std::uint32_t guest_steps, Rng& rng, PortModel port_model) {
  const std::uint32_t n = guest.num_nodes();
  const std::uint32_t m = host.num_nodes();
  UPN_REQUIRE(n > 0 && m > 0 && guest_steps > 0);
  UniversalSimulator simulator{guest, host, make_random_embedding(n, m, rng)};
  UniversalSimOptions options;
  options.port_model = port_model;
  options.seed = rng();
  const UniversalSimResult result = simulator.run(guest_steps, options);

  SlowdownRow row;
  row.n = n;
  row.m = m;
  row.load = result.load;
  row.slowdown = result.slowdown;
  row.inefficiency = result.inefficiency;
  row.load_bound = static_cast<double>(n) / m;
  row.paper_bound = row.load_bound * std::log2(static_cast<double>(m));
  row.normalized = row.paper_bound > 0 ? row.slowdown / row.paper_bound : 0.0;
  row.verified = result.configs_match;
  return row;
}

namespace {

std::vector<std::uint32_t> butterfly_sweep_dimensions(const Graph& guest,
                                                      std::uint32_t max_host_size) {
  std::vector<std::uint32_t> dimensions;
  for (std::uint32_t d = 2;; ++d) {
    const std::uint64_t size = static_cast<std::uint64_t>(d + 1) << d;
    if (size > max_host_size || size > guest.num_nodes()) break;
    dimensions.push_back(d);
  }
  return dimensions;
}

}  // namespace

std::vector<SlowdownRow> sweep_butterfly_hosts_par(const Graph& guest,
                                                   std::uint32_t guest_steps,
                                                   std::uint32_t max_host_size,
                                                   std::uint64_t seed, ThreadPool& pool) {
  UPN_REQUIRE(guest.num_nodes() > 0 && guest_steps > 0);
  const std::vector<std::uint32_t> dimensions =
      butterfly_sweep_dimensions(guest, max_host_size);
  return pool.parallel_map<SlowdownRow>(dimensions.size(), [&](std::size_t i) {
    Rng rng = Rng::stream(seed, i);
    const Graph host = make_butterfly(dimensions[i]);
    return measure_slowdown(guest, host, guest_steps, rng);
  });
}

}  // namespace upn
