// Experiment GP -- the Galil-Paul sorting route to universality vs the
// paper's direct routing.
//
// Sorting-based universality costs O(sort(m)) per guest step; with bitonic
// sorters that is Theta(log^2 m) per permutation round, versus Theta(log m)
// for Theorem 2.1's off-line routing.  The tables expose the log m gap, plus
// Columnsort's size amplification (sort r*s keys with depth-O(D_r) column
// sorters).
#include <algorithm>
#include <iostream>
#include <string>

#include "bench/harness.hpp"
#include "src/core/galil_paul.hpp"
#include "src/core/slowdown.hpp"
#include "src/sorting/bitonic.hpp"
#include "src/sorting/columnsort.hpp"
#include "src/sorting/odd_even_merge.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/table.hpp"

namespace {

using namespace upn;

void print_network_table() {
  std::cout << "=== GP: sorting-network depth/size vs m (one permutation round) ===\n";
  Table table{{"m", "bitonic depth", "bitonic size", "oem depth", "oem size",
               "log2 m", "depth/log2^2 m"}};
  for (const std::uint32_t logm : {4u, 6u, 8u, 10u, 12u}) {
    const std::uint32_t m = 1u << logm;
    const ComparatorNetwork bitonic = make_bitonic_sorter(m);
    const ComparatorNetwork oem = make_odd_even_merge_sorter(m);
    table.add_row({std::uint64_t{m}, std::uint64_t{bitonic.depth()},
                   std::uint64_t{bitonic.size()}, std::uint64_t{oem.depth()},
                   std::uint64_t{oem.size()}, std::uint64_t{logm},
                   static_cast<double>(bitonic.depth()) / (logm * logm)});
  }
  table.print(std::cout);
  std::cout << "\n";
}

void print_gp_vs_direct_table() {
  std::cout << "=== GP vs THM2.1: per-guest-step cost, sorting route vs direct "
               "routing (n = 512) ===\n";
  const std::uint32_t n = 512;
  Rng rng{17};
  const Graph guest = make_random_regular(n, kGuestDegree, rng);
  Table table{{"m", "GP rounds", "GP steps/guest-step", "direct s (measured)",
               "GP/direct", "GP full-sim verified"}};
  for (const std::uint32_t d : {2u, 3u, 4u}) {
    const Graph host = make_butterfly(d);
    const std::uint32_t m = host.num_nodes();
    const GalilPaulCost gp = galil_paul_step_cost(guest, m);
    Rng run_rng{23};
    const SlowdownRow direct = measure_slowdown(guest, host, 2, run_rng);
    // The complete payload-carrying GP simulation, verified end to end.
    const GalilPaulSimResult full = run_galil_paul(guest, m, 2);
    table.add_row({std::uint64_t{m}, std::uint64_t{gp.rounds}, gp.slowdown,
                   direct.slowdown, gp.slowdown / direct.slowdown,
                   std::string{full.configs_match ? "yes" : "NO"}});
  }
  table.print(std::cout);
  std::cout << "\n";
}

void print_columnsort_table() {
  std::cout << "=== GP: Columnsort amplification (sort n keys with r-key column "
               "sorts) ===\n";
  Table table{{"n", "r", "s", "col-sort rounds", "perm rounds", "sorted"}};
  Rng rng{29};
  for (const auto& [r, s] : {std::pair{32u, 4u}, std::pair{128u, 4u}, std::pair{128u, 8u},
                             std::pair{512u, 8u}}) {
    std::vector<std::uint64_t> values(static_cast<std::size_t>(r) * s);
    for (auto& v : values) v = rng();
    const ColumnsortStats stats = columnsort(values, r, s);
    table.add_row({std::uint64_t{values.size()}, std::uint64_t{r}, std::uint64_t{s},
                   std::uint64_t{stats.column_sort_rounds},
                   std::uint64_t{stats.permutation_rounds},
                   std::string{std::is_sorted(values.begin(), values.end()) ? "yes" : "NO"}});
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  upn::bench::Harness harness{"sorting", argc, argv};

  harness.once("network_table", [] { print_network_table(); });
  harness.once("gp_vs_direct_table", [] { print_gp_vs_direct_table(); });
  harness.once("columnsort_table", [] { print_columnsort_table(); });

  for (const std::uint32_t m : {256u, 1024u, 4096u}) {
    const ComparatorNetwork net = make_bitonic_sorter(m);
    Rng rng{3};
    std::vector<std::uint64_t> values(m);
    harness.measure("bitonic_apply/m=" + std::to_string(m), [&] {
      for (auto& v : values) v = rng();
      net.apply(values);
      upn::bench::keep(values.data());
    });
  }

  for (const std::uint32_t r : {64u, 256u, 1024u}) {
    const std::uint32_t s = 4;
    Rng rng{4};
    std::vector<std::uint64_t> values(static_cast<std::size_t>(r) * s);
    harness.measure("columnsort/r=" + std::to_string(r), [&] {
      for (auto& v : values) v = rng();
      columnsort(values, r, s);
      upn::bench::keep(values.data());
    });
  }

  return harness.finish();
}
