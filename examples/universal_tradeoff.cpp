// The headline experiment as an example: sweep butterfly host sizes for a
// fixed guest and print measured slowdown against the load bound n/m, the
// Theorem 2.1 upper-bound shape (n/m) log2 m, and the Theorem 3.1 lower
// bound.  The "normalized" column s / ((n/m) log2 m) should hover around a
// constant -- that constancy IS the trade-off.
//
//   ./universal_tradeoff [--n 512] [--steps 4] [--seed 7] [--csv]
#include <cstdlib>
#include <iostream>

#include "src/core/slowdown.hpp"
#include "src/lowerbound/tradeoff.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace upn;
  try {
    const Cli cli{argc, argv};
    const auto n = static_cast<std::uint32_t>(cli.get_u64("n", 512));
    const auto steps = static_cast<std::uint32_t>(cli.get_u64("steps", 4));
    const bool csv = cli.has("csv");
    const std::uint64_t seed = cli.get_u64("seed", 7);
    Rng rng{seed};

    const Graph guest = make_random_regular(n, kGuestDegree, rng);
    ThreadPool pool{1};
    const auto rows = sweep_butterfly_hosts_par(guest, steps, n, seed, pool);

    Table table{{"m", "load", "s (measured)", "n/m", "(n/m)log2(m)", "normalized",
                 "k (measured)", "k lower bd", "verified"}};
    const CountingConstants constants;
    for (const SlowdownRow& row : rows) {
      const double k_lb = min_feasible_inefficiency(row.n, row.m, constants);
      table.add_row({std::uint64_t{row.m}, std::uint64_t{row.load}, row.slowdown,
                     row.load_bound, row.paper_bound, row.normalized, row.inefficiency,
                     k_lb, std::string{row.verified ? "yes" : "NO"}});
    }
    if (csv) {
      table.write_csv(std::cout);
    } else {
      std::cout << "guest: " << guest.name() << ", T = " << steps << "\n";
      table.print(std::cout);
      std::cout << "\nTheorem 3.1: m*s = Omega(n log m); Theorem 2.1 matches it on the\n"
                   "butterfly for m <= n, so 'normalized' should be ~constant.\n";
    }
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
