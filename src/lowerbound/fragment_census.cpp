#include "src/lowerbound/fragment_census.hpp"

#include <cmath>
#include <unordered_set>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"
#include "src/pebble/metrics.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"

namespace upn {

std::uint64_t fragment_hash(const Fragment& fragment) {
  std::uint64_t h = mix64(0x4652414746524147ULL ^ fragment.t0());
  for (NodeId i = 0; i < fragment.num_guests(); ++i) {
    for (const std::uint32_t q : fragment.B(i)) {
      h = mix64(h ^ (static_cast<std::uint64_t>(i) << 32 | q));
    }
    h = mix64(h ^ (0xb0b0b0b0ULL + fragment.b(i)));
  }
  return h;
}

namespace {

struct GuestSample {
  FragmentCensusRow row;
  double inefficiency = 0;
};

/// Simulates one random guest drawn from `rng` and extracts its census row.
GuestSample census_one_guest(const G0& g0, const Graph& host, std::uint32_t T,
                             double small_d_threshold, Rng& rng) {
  UPN_OBS_SPAN("lowerbound.census.guest");
  const std::uint32_t n = g0.num_nodes();
  const std::uint32_t m = host.num_nodes();
  const Graph guest = make_random_regular_with_subgraph(g0.graph, kGuestDegree, rng);
  UniversalSimulator sim{guest, host, make_random_embedding(n, m, rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  options.seed = rng();
  const UniversalSimResult result = sim.run(T, options);
  if (!result.configs_match) {
    throw std::logic_error{"run_fragment_census: simulation diverged"};
  }
  const ProtocolMetrics metrics{*result.protocol};
  const Fragment fragment = extract_fragment(metrics, T / 2);

  GuestSample sample;
  sample.row.fragment_hash = fragment_hash(fragment);
  sample.row.log2_multiplicity = log2_multiplicity_bound(fragment, kGuestDegree);
  sample.row.sum_b = fragment.total_b_size();
  sample.row.small_d = count_small_d(fragment, small_d_threshold);
  sample.inefficiency = result.inefficiency;
  UPN_OBS_COUNT("lowerbound.census.guests_sampled", 1);
  UPN_OBS_COUNT("lowerbound.census.sum_b", sample.row.sum_b);
  UPN_OBS_HIST("lowerbound.census.fragment_b_size", sample.row.sum_b);
  return sample;
}

/// Ordered reduction of per-guest samples into the census aggregate; runs
/// serially in guest order whatever the pool size.
FragmentCensus finalize_census(std::vector<GuestSample> samples, std::uint32_t n,
                               const CountingConstants& constants) {
  UPN_OBS_SPAN("lowerbound.census.finalize");
  FragmentCensus census;
  census.guests = static_cast<std::uint32_t>(samples.size());
  std::unordered_set<std::uint64_t> seen;
  double k_sum = 0;
  for (const GuestSample& sample : samples) {
    census.rows.push_back(sample.row);
    census.worst_log2_multiplicity =
        std::max(census.worst_log2_multiplicity, sample.row.log2_multiplicity);
    seen.insert(sample.row.fragment_hash);
    k_sum += sample.inefficiency;
  }
  UPN_ENSURE(census.rows.size() == census.guests, "one census row per sampled guest");
  census.distinct_fragments = static_cast<std::uint32_t>(seen.size());
  UPN_ENSURE(census.distinct_fragments <= census.guests,
             "cannot see more distinct fragments than guests");
  census.mean_inefficiency = census.guests == 0 ? 0.0 : k_sum / census.guests;
  census.log2_a_bound = log2_a_count(n, census.mean_inefficiency, constants);
  census.log2_guest_space = log2_guest_count_lower(n, constants);
  UPN_OBS_GAUGE_MAX("lowerbound.census.distinct_fragments", census.distinct_fragments);
  return census;
}

}  // namespace

FragmentCensus run_fragment_census_par(const G0& g0, std::uint32_t butterfly_dimension,
                                       std::uint32_t num_guests, std::uint32_t T,
                                       std::uint64_t seed, ThreadPool& pool,
                                       const CountingConstants& constants) {
  UPN_REQUIRE(T >= 1, "run_fragment_census: need at least one guest step to cut at T/2");
  const Graph host = make_butterfly(butterfly_dimension);
  const std::uint32_t n = g0.num_nodes();
  UPN_REQUIRE(n > 0 && host.num_nodes() > 0, "run_fragment_census: empty guest or host");
  const double small_d_threshold = static_cast<double>(n) / std::sqrt(host.num_nodes());

  std::vector<GuestSample> samples =
      pool.parallel_map<GuestSample>(num_guests, [&](std::size_t g) {
        Rng rng = Rng::stream(seed, g);
        return census_one_guest(g0, host, T, small_d_threshold, rng);
      });
  return finalize_census(std::move(samples), n, constants);
}

}  // namespace upn
