// Protocol toolbox: generate, save, load, validate, and summarize Section
// 3.1 pebble protocols from the command line.
//
//   # generate a protocol and save it
//   ./protocol_tools --mode generate --guest random:96:16:5 --host butterfly:3
//                    --steps 4 --out /tmp/sim.upnp
//   # validate + summarize a saved protocol (exit 1 unless it is legal)
//   ./protocol_tools --mode check --guest random:96:16:5 --host butterfly:3
//                    --in /tmp/sim.upnp
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/pebble/io.hpp"
#include "src/pebble/metrics.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/parse.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

using namespace upn;

/// Prints the validator verdict and the summary table; returns the verdict.
/// The weight row needs ProtocolMetrics, which assumes a valid protocol, so
/// it is printed only for a legal one.
bool summarize(const Protocol& protocol, const Graph& guest, const Graph& host) {
  const ValidationResult validation = validate_protocol(protocol, guest, host);
  std::cout << "validator: " << (validation.ok ? "LEGAL" : validation.error) << "\n";
  Table table{{"quantity", "value"}};
  table.add_row({std::string{"guests n"}, std::uint64_t{protocol.num_guests()}});
  table.add_row({std::string{"hosts m"}, std::uint64_t{protocol.num_hosts()}});
  table.add_row({std::string{"guest steps T"}, std::uint64_t{protocol.guest_steps()}});
  table.add_row({std::string{"host steps T'"}, std::uint64_t{protocol.host_steps()}});
  table.add_row({std::string{"operations"}, protocol.num_ops()});
  table.add_row({std::string{"pebbles generated"}, validation.pebbles_generated});
  table.add_row({std::string{"pebbles sent"}, validation.pebbles_sent});
  table.add_row({std::string{"slowdown s"}, protocol.slowdown()});
  table.add_row({std::string{"inefficiency k"}, protocol.inefficiency()});
  if (validation.ok) {
    const ProtocolMetrics metrics{protocol};
    table.add_row({std::string{"sum_i q_{i,T}"},
                   metrics.total_weight_at(protocol.guest_steps())});
  }
  table.print(std::cout);
  return validation.ok;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli{argc, argv};
    const std::string mode = cli.get("mode", "generate");
    const std::string guest_spec = cli.get("guest", "random:96:16:5");
    const std::string host_spec = cli.get("host", "butterfly:3");
    Graph guest, host;
    try {
      guest = make_topology(guest_spec);
      host = make_topology(host_spec);
    } catch (const std::exception& e) {
      // Only topology-spec mistakes earn the spec cheat sheet; file and
      // protocol errors below get just the message.
      std::cerr << "error: " << e.what() << "\n" << topology_spec_help() << "\n";
      return EXIT_FAILURE;
    }

    if (mode == "generate") {
      const auto steps = static_cast<std::uint32_t>(cli.get_u64("steps", 4));
      const std::string out = cli.get("out", "/tmp/protocol.upnp");
      Rng rng{cli.get_u64("seed", 1)};
      UniversalSimulator sim{guest, host,
                             make_random_embedding(guest.num_nodes(), host.num_nodes(), rng)};
      UniversalSimOptions options;
      options.emit_protocol = true;
      options.seed = rng();
      const UniversalSimResult result = sim.run(steps, options);
      if (!result.configs_match) {
        std::cerr << "simulation diverged from reference -- refusing to save\n";
        return EXIT_FAILURE;
      }
      std::ofstream file{out};
      if (!file) {
        std::cerr << "cannot open " << out << " for writing\n";
        return EXIT_FAILURE;
      }
      write_protocol(file, *result.protocol);
      std::cout << "wrote " << result.protocol->num_ops() << " ops ("
                << result.protocol->host_steps() << " host steps) to " << out << "\n";
      return summarize(*result.protocol, guest, host) ? EXIT_SUCCESS : EXIT_FAILURE;
    }
    if (mode == "check") {
      const std::string in = cli.get("in", "/tmp/protocol.upnp");
      std::ifstream file{in};
      if (!file) {
        std::cerr << "cannot open " << in << "\n";
        return EXIT_FAILURE;
      }
      const Protocol protocol = read_protocol(file);
      return summarize(protocol, guest, host) ? EXIT_SUCCESS : EXIT_FAILURE;
    }
    std::cerr << "unknown --mode '" << mode << "' (generate | check)\n";
    return EXIT_FAILURE;
  } catch (const std::exception& e) {
    // Catch-all: a malformed protocol file or flag must exit non-zero with
    // a message, never std::terminate.
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
