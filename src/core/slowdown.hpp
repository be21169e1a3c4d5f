// Slowdown measurement sweeps: the glue between the universal simulator and
// the trade-off experiments (THM2.1, UB-vs-LB).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/universal_sim.hpp"
#include "src/topology/graph.hpp"
#include "src/util/par.hpp"
#include "src/util/rng.hpp"

namespace upn {

/// One row of the trade-off table.
struct SlowdownRow {
  std::uint32_t n = 0;          ///< guest size
  std::uint32_t m = 0;          ///< host size
  std::uint32_t load = 0;       ///< ceil-balanced embedding load
  double slowdown = 0.0;        ///< measured s
  double inefficiency = 0.0;    ///< measured k = s m / n
  double load_bound = 0.0;      ///< n / m (the trivial lower bound)
  double paper_bound = 0.0;     ///< (n/m) * log2(m): Theorem 2.1's shape
  double normalized = 0.0;      ///< s / paper_bound: should be Theta(1)
  bool verified = false;        ///< configurations matched the reference
};

/// Measures the slowdown of simulating `guest` on `host` for `guest_steps`
/// steps with a random balanced embedding.
[[nodiscard]] SlowdownRow measure_slowdown(const Graph& guest, const Graph& host,
                                           std::uint32_t guest_steps, Rng& rng,
                                           PortModel port_model = PortModel::kSinglePort);

/// Theorem 2.1 sweep: fixed guest, butterfly hosts of increasing dimension
/// up to max_host_size, one row per host.  One pool task per host: point i
/// draws from its own Rng::stream(seed, i) and rows are collected by index,
/// so the table is byte-identical for every pool size (including the serial
/// size-1 pool).
[[nodiscard]] std::vector<SlowdownRow> sweep_butterfly_hosts_par(
    const Graph& guest, std::uint32_t guest_steps, std::uint32_t max_host_size,
    std::uint64_t seed, ThreadPool& pool);

}  // namespace upn
