// Experiment PEBBLE -- the Section 3.1 model's bookkeeping costs.
//
// The counting argument hinges on "the number of pebbles used is at most
// T' * m = T * n * k".  The table confirms that accounting on emitted
// protocols and reports validator/metrics throughput.  Validation of the
// emitted protocols runs through the batch validator (one pool task per
// protocol, --threads=N); verdicts are byte-identical for every N.
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/pebble/metrics.hpp"
#include "src/pebble/stats.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/par.hpp"
#include "src/util/table.hpp"

namespace {

using namespace upn;

struct Emitted {
  Graph guest;
  Graph host;
  Protocol protocol{1, 1, 1};
};

Emitted emit(std::uint32_t n, std::uint32_t d, std::uint32_t T, std::uint64_t seed) {
  Rng rng{seed};
  Emitted e;
  e.guest = make_random_regular(n, kGuestDegree, rng);
  e.host = make_butterfly(d);
  UniversalSimulator sim{e.guest, e.host, make_random_embedding(n, e.host.num_nodes(), rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  UniversalSimResult result = sim.run(T, options);
  e.protocol = std::move(*result.protocol);
  return e;
}

void print_experiment_table(ThreadPool& pool) {
  std::cout << "=== PEBBLE: protocol accounting (ops <= T' m = T n k, batch-validated "
               "on the pool) ===\n";
  Table table{{"n", "m", "T", "T'", "ops", "T'*m", "placements", "k", "valid"}};
  std::vector<Emitted> emitted;
  std::vector<std::uint32_t> steps;
  for (const auto& [n, d, T] :
       {std::tuple{64u, 2u, 6u}, std::tuple{128u, 2u, 6u}, std::tuple{256u, 3u, 4u}}) {
    emitted.push_back(emit(n, d, T, 42 + n));
    steps.push_back(T);
  }
  const std::vector<ValidationResult> verdicts =
      pool.parallel_map<ValidationResult>(emitted.size(), [&](std::size_t i) {
        return validate_protocol(emitted[i].protocol, emitted[i].guest, emitted[i].host);
      });
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    const Emitted& e = emitted[i];
    const ProtocolMetrics metrics{e.protocol};
    table.add_row({std::uint64_t{e.guest.num_nodes()}, std::uint64_t{e.host.num_nodes()},
                   std::uint64_t{steps[i]}, std::uint64_t{e.protocol.host_steps()},
                   e.protocol.num_ops(),
                   static_cast<std::uint64_t>(e.protocol.host_steps()) *
                       e.host.num_nodes(),
                   metrics.total_placements(), metrics.inefficiency(),
                   std::string{verdicts[i].ok ? "yes" : "NO"}});
  }
  table.print(std::cout);
  std::cout << "\n";
}

void print_stats_table() {
  std::cout << "=== PEBBLE: operational profile of emitted protocols ===\n";
  Table table{{"n", "m", "generates", "sends", "utilization", "comm fraction",
               "busiest proc ops"}};
  for (const auto& [n, d, T] : {std::tuple{64u, 2u, 6u}, std::tuple{128u, 2u, 6u}}) {
    const Emitted e = emit(n, d, T, 77 + n);
    const ProtocolStats stats = protocol_stats(e.protocol);
    table.add_row({std::uint64_t{n}, std::uint64_t{e.host.num_nodes()}, stats.generates,
                   stats.sends, stats.utilization, stats.comm_fraction,
                   stats.busiest_proc_ops});
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  upn::bench::Harness harness{"pebble", argc, argv};

  harness.once("accounting_table", [&] { print_experiment_table(harness.pool()); });
  harness.once("stats_table", [] { print_stats_table(); });

  for (const std::uint32_t n : {64u, 128u, 256u}) {
    const Emitted e = emit(n, 2, 4, 7);
    harness.measure("validate_protocol/n=" + std::to_string(n), [&] {
      const ValidationResult result = validate_protocol(e.protocol, e.guest, e.host);
      upn::bench::keep(result.ok);
    });
  }

  {
    // The batch path itself: one pool task per protocol.
    std::vector<Emitted> emitted;
    for (const std::uint32_t n : {64u, 128u, 256u}) emitted.push_back(emit(n, 2, 4, 7));
    harness.measure("validate_protocols_batch/jobs=3", [&] {
      const std::vector<ValidationResult> verdicts =
          harness.pool().parallel_map<ValidationResult>(emitted.size(), [&](std::size_t i) {
            return validate_protocol(emitted[i].protocol, emitted[i].guest, emitted[i].host);
          });
      upn::bench::keep(verdicts.size());
    });
  }

  for (const std::uint32_t n : {64u, 256u}) {
    const Emitted e = emit(n, 2, 4, 8);
    harness.measure("build_metrics/n=" + std::to_string(n), [&] {
      const ProtocolMetrics metrics{e.protocol};
      upn::bench::keep(metrics.total_placements());
    });
  }

  {
    // The CI ratchet size (bench/baselines/BENCH_pebble.json): 3.1 M ops
    // on butterfly(4), large enough that holdings and receive matching
    // dominate the validator.
    const Emitted e = emit(1296, 4, 16, 9);
    harness.measure("validate_protocol/n=1296,d=4", [&] {
      const ValidationResult result = validate_protocol(e.protocol, e.guest, e.host);
      upn::bench::keep(result.ok);
    });
    harness.measure("build_metrics/n=1296,d=4", [&] {
      const ProtocolMetrics metrics{e.protocol};
      upn::bench::keep(metrics.total_placements());
    });
  }

  // Emission, ending with the protocol's release.  The n=1296 section (T=16,
  // about 3 M ops) stores the words of guest step 1 only, about 1/16 of its
  // ops: guest steps 2..16 are time-shifted repeats of step 1.
  for (const auto& [n, d, T] :
       {std::tuple{64u, 2u, 2u}, std::tuple{128u, 2u, 2u}, std::tuple{1296u, 4u, 16u}}) {
    Rng rng{3};
    const Graph guest = make_random_regular(n, kGuestDegree, rng);
    const Graph host = make_butterfly(d);
    UniversalSimulator sim{guest, host, make_random_embedding(n, host.num_nodes(), rng)};
    UniversalSimOptions options;
    options.emit_protocol = true;
    const std::string name = "emit_protocol/n=" + std::to_string(n);
    harness.measure(d == 2 ? name : name + ",d=" + std::to_string(d), [&] {
      const UniversalSimResult result = sim.run(T, options);
      upn::bench::keep(result.protocol->num_ops());
    });
  }

  return harness.finish();
}
