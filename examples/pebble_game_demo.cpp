// Hand-drive the Section 3.1 pebble game: build a protocol step by step for
// a tiny guest/host pair, validate it, and print the metrics the lower-bound
// proof reasons about (representatives, weights, fragments).
//
//   ./pebble_game_demo
#include <cstdlib>
#include <iostream>

#include "src/pebble/fragment.hpp"
#include "src/pebble/metrics.hpp"
#include "src/pebble/protocol.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace upn;
  try {
    // Guest: the triangle P0-P1-P2.  Host: two processors Q0-Q1.  T = 2.
    const Graph guest = make_cycle(3);
    const Graph host = make_path(2);
    Protocol protocol{3, 2, 2};

    auto generate = [&](std::uint32_t proc, NodeId i, std::uint32_t t) {
      protocol.add_step({{Op{OpKind::kGenerate, proc, PebbleType{i, t}, 0}}});
      std::cout << "step " << protocol.host_steps() << ": Q" << proc << " generates (P" << i
                << "," << t << ")\n";
    };
    auto transfer = [&](std::uint32_t from, std::uint32_t to, NodeId i, std::uint32_t t) {
      protocol.add_step({{Op{OpKind::kSend, from, PebbleType{i, t}, to},
                          Op{OpKind::kReceive, to, PebbleType{i, t}, from}}});
      std::cout << "step " << protocol.host_steps() << ": Q" << from << " sends (P" << i
                << "," << t << ") to Q" << to << "\n";
    };

    std::cout << "== Simulating 2 steps of the triangle on a 2-processor host ==\n";
    std::cout << "(initially, both processors hold all (P_i, 0) pebbles)\n\n";
    // Level 1: Q0 generates everything from the initial pebbles.
    generate(0, 0, 1);
    generate(0, 1, 1);
    generate(0, 2, 1);
    // Ship copies so Q1 can take over P0 and P1 at level 2.
    transfer(0, 1, 0, 1);
    transfer(0, 1, 1, 1);
    transfer(0, 1, 2, 1);
    // Level 2: split the generation work.
    generate(1, 0, 2);
    generate(1, 1, 2);
    generate(0, 2, 2);

    const ValidationResult validation = validate_protocol(protocol, guest, host);
    std::cout << "\nvalidator: " << (validation.ok ? "protocol is LEGAL" : validation.error)
              << " (" << validation.pebbles_generated << " generated, "
              << validation.pebbles_sent << " sent)\n";
    if (!validation.ok) return EXIT_FAILURE;

    const ProtocolMetrics metrics{protocol};
    std::cout << "slowdown s = " << metrics.host_steps() << "/" << metrics.guest_steps()
              << " = " << protocol.slowdown()
              << ", inefficiency k = " << metrics.inefficiency() << "\n\n";

    Table weights{{"pebble", "Q_S(i,t)", "q_{i,t}"}};
    for (std::uint32_t t = 0; t <= 2; ++t) {
      for (NodeId i = 0; i < 3; ++i) {
        std::string reps;
        for (const auto q : metrics.representatives(i, t)) {
          reps += (reps.empty() ? "Q" : ",Q") + std::to_string(q);
        }
        weights.add_row({"(P" + std::to_string(i) + "," + std::to_string(t) + ")", reps,
                         std::uint64_t{metrics.weight(i, t)}});
      }
    }
    weights.print(std::cout);

    const Fragment fragment = extract_fragment(metrics, 1);
    std::cout << "\nfragment at t0 = 1 (Definition 3.2): sum |B_i| = "
              << fragment.total_b_size() << ", generators b = {";
    for (NodeId i = 0; i < 3; ++i) {
      std::cout << (i ? ", " : "") << "Q" << fragment.b(i);
    }
    std::cout << "}\nlog2 multiplicity bound (Lemma 3.3, c=2): "
              << log2_multiplicity_bound(fragment, 2) << "\n";
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
