// Differential test of the bitset validator against the preserved
// unordered_set validator (tests/support/reference_validator.hpp): on the
// mutation-test corpus, the pebble-IO fuzz corpus and seeded random
// mutations of emitted protocols, both must return byte-identical verdicts
// -- ok flag, error string and all three pebble counters.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "src/core/embedding.hpp"
#include "src/core/fault_tolerant_sim.hpp"
#include "src/core/universal_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/surgery.hpp"
#include "src/pebble/io.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "tests/support/reference_validator.hpp"

namespace upn {
namespace {

/// Canonical dump of a verdict: equal strings iff equal results.
std::string dump(const ValidationResult& r) {
  return std::string{r.ok ? "ok" : "rejected"} + " generated=" +
         std::to_string(r.pebbles_generated) + " sent=" + std::to_string(r.pebbles_sent) +
         " received=" + std::to_string(r.pebbles_received) + " error=" + r.error;
}

/// Asserts both validators agree; returns whether the protocol was legal.
bool expect_same_verdict(const Protocol& protocol, const Graph& guest, const Graph& host) {
  const ValidationResult fast = validate_protocol(protocol, guest, host);
  const ValidationResult reference = testing::reference_validate_protocol(protocol, guest, host);
  EXPECT_EQ(dump(fast), dump(reference));
  return reference.ok;
}

/// Rebuilds the protocol applying `mutate` to each op (by flat index); a
/// mutation returning false drops the op.
Protocol rebuild_with(const Protocol& original,
                      const std::function<bool(std::size_t, Op&)>& mutate) {
  Protocol out{original.num_guests(), original.num_hosts(), original.guest_steps()};
  std::size_t index = 0;
  for (std::uint32_t s = 0; s < original.host_steps(); ++s) {
    out.begin_step();
    for (Op op : original.step(s)) {
      if (mutate(index++, op)) out.add(op);
    }
  }
  return out;
}

struct Emitted {
  Graph guest;
  Graph host;
  Protocol protocol{1, 1, 1};
};

Emitted emit(std::uint32_t n, std::uint32_t degree, std::uint32_t d, std::uint32_t T,
             std::uint64_t seed) {
  Rng rng{seed};
  Emitted e;
  e.guest = make_random_regular(n, degree, rng);
  e.host = make_butterfly(d);
  UniversalSimulator sim{e.guest, e.host, make_random_embedding(n, e.host.num_nodes(), rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  UniversalSimResult result = sim.run(T, options);
  e.protocol = std::move(*result.protocol);
  return e;
}

// ---- the validator_mutation_test corpus -----------------------------------

TEST(ValidatorDifferential, MutationCorpusOnTheUniversalProtocol) {
  const Emitted e = emit(24, 4, 2, 3, 777);
  ASSERT_TRUE(expect_same_verdict(e.protocol, e.guest, e.host));
  const auto ops = e.protocol.ops();
  const std::uint32_t T = e.protocol.guest_steps();
  std::size_t rejected = 0;
  for (std::size_t target = 0; target < ops.size(); ++target) {
    const Op& op = ops[target];
    std::vector<Protocol> mutants;
    if (op.kind == OpKind::kReceive) {
      // Receive turned into a send of an initial pebble.
      mutants.push_back(rebuild_with(e.protocol, [&](std::size_t i, Op& o) {
        if (i == target) {
          o.kind = OpKind::kSend;
          o.pebble = PebbleType{0, 0};
        }
        return true;
      }));
      // Receive pointed at another neighbor of the receiver.
      mutants.push_back(rebuild_with(e.protocol, [&](std::size_t i, Op& o) {
        if (i == target) {
          for (const NodeId nb : e.host.neighbors(o.proc)) {
            if (nb != o.partner) {
              o.partner = nb;
              break;
            }
          }
        }
        return true;
      }));
    }
    if (op.kind == OpKind::kSend && op.pebble.time + 1 < T) {
      // A pebble from the future.
      mutants.push_back(rebuild_with(e.protocol, [&](std::size_t i, Op& o) {
        if (i == target) ++o.pebble.time;
        return true;
      }));
    }
    if (op.kind == OpKind::kGenerate && op.pebble.time == T) {
      // A final-level generate retimed to a mid level.
      mutants.push_back(rebuild_with(e.protocol, [&](std::size_t i, Op& o) {
        if (i == target) o.pebble.time = T - 1;
        return true;
      }));
    }
    for (const Protocol& mutant : mutants) {
      if (!expect_same_verdict(mutant, e.guest, e.host)) ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ValidatorDifferential, MutationCorpusOnTheSelfHealingProtocol) {
  Rng rng{4242};
  const Graph guest = make_random_regular(16, 3, rng);
  const Graph host = make_butterfly(2);
  FaultPlan plan;
  plan.add_node_fault(NodeFault{0, 0});
  std::vector<NodeId> embedding;
  for (NodeId u = 0; u < guest.num_nodes(); ++u) embedding.push_back(u % host.num_nodes());
  FaultTolerantSimulator sim{guest, host, plan, embedding};
  FaultSimOptions options;
  options.emit_protocol = true;
  FaultSimResult result = sim.run(3, options);
  ASSERT_TRUE(result.completed);
  const Protocol& protocol = *result.protocol;
  const Graph survivors = surviving_edges_graph(host, plan);
  ASSERT_TRUE(expect_same_verdict(protocol, guest, host));
  ASSERT_TRUE(expect_same_verdict(protocol, guest, survivors));

  const auto ops = protocol.ops();
  for (std::size_t target = 0; target < ops.size(); ++target) {
    const Op& op = ops[target];
    // Lost receive: the packet died without a retransmission.
    if (op.kind == OpKind::kReceive) {
      const Protocol lost = rebuild_with(protocol, [&](std::size_t i, Op&) { return i != target; });
      expect_same_verdict(lost, guest, host);
    }
    // A generate relocated to the dead processor (unless 0 already acts
    // in that step -- Protocol::add rejects a second op).
    if (op.kind == OpKind::kGenerate && op.pebble.time >= 2) {
      try {
        const Protocol moved = rebuild_with(protocol, [&](std::size_t i, Op& o) {
          if (i == target) o.proc = 0;
          return true;
        });
        expect_same_verdict(moved, guest, host);
      } catch (const std::logic_error&) {
      }
    }
    // A send rewired across an edge that died with processor 0.
    if (op.kind == OpKind::kSend && host.has_edge(op.proc, 0)) {
      const Protocol rewired = rebuild_with(protocol, [&](std::size_t i, Op& o) {
        if (i == target) o.partner = 0;
        return true;
      });
      expect_same_verdict(rewired, guest, survivors);
      expect_same_verdict(rewired, guest, host);
    }
  }
}

// ---- the pebble-IO fuzz corpus ---------------------------------------------

std::string valid_text() {
  Protocol protocol{3, 4, 2};
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0});
  protocol.add(Op{OpKind::kSend, 1, PebbleType{2, 0}, 2});
  protocol.add(Op{OpKind::kReceive, 2, PebbleType{2, 0}, 1});
  protocol.begin_step();
  protocol.add(Op{OpKind::kGenerate, 1, PebbleType{1, 1}, 0});
  std::ostringstream out;
  write_protocol(out, protocol);
  return out.str();
}

/// Validates a parsed protocol against graphs of its own header sizes
/// (complete graphs: every send has a neighbor), and against a mismatch.
/// Returns false when the parser rejects the text or its sizes are huge.
bool expect_same_verdict_on_text(const std::string& text) {
  std::stringstream buffer{text};
  Protocol protocol{1, 1, 1};
  try {
    protocol = read_protocol(buffer);
  } catch (const std::runtime_error&) {
    return false;  // nothing to validate
  }
  if (protocol.num_guests() > 64 || protocol.num_hosts() > 64) return false;
  const Graph guest = make_complete(protocol.num_guests());
  const Graph host = make_complete(protocol.num_hosts());
  expect_same_verdict(protocol, guest, host);
  expect_same_verdict(protocol, make_cycle(protocol.num_guests() + 3), host);
  return true;
}

TEST(ValidatorDifferential, PebbleIoFuzzCorpus) {
  const std::string text = valid_text();
  std::size_t validated = 0;
  for (std::size_t len = 0; len <= text.size(); ++len) {
    if (expect_same_verdict_on_text(text.substr(0, len))) ++validated;
  }
  const char alphabet[] = "0123456789GSR step\n-x";
  Rng rng{0xf022};
  // The first 500 draws are pebble_io_fuzz_test's corpus; most of them
  // break the syntax, so keep drawing until enough of them parse.
  for (int iter = 0; iter < 5000; ++iter) {
    std::string mutated = text;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = alphabet[rng.below(sizeof(alphabet) - 1)];
    }
    if (expect_same_verdict_on_text(mutated)) ++validated;
  }
  EXPECT_GT(validated, 100u) << "too few fuzz inputs parsed to exercise the validators";
}

// ---- seeded random mutations of emitted protocols --------------------------

TEST(ValidatorDifferential, RandomMutationsOfEmittedProtocols) {
  struct Size {
    std::uint32_t n, degree, d, T;
  };
  std::size_t compared = 0, rejected = 0;
  for (const Size& size : {Size{24, 4, 2, 3}, Size{48, 6, 2, 5}, Size{96, 4, 3, 2},
                           Size{64, 16, 3, 4}}) {
    const Emitted e = emit(size.n, size.degree, size.d, size.T, 91 + size.n);
    ASSERT_TRUE(expect_same_verdict(e.protocol, e.guest, e.host));
    const std::uint64_t num_ops = e.protocol.num_ops();
    const std::uint32_t m = e.protocol.num_hosts();
    Rng rng{size.n * 1000003ull + size.T};
    for (int iter = 0; iter < 120; ++iter) {
      const std::size_t target = rng.below(num_ops);
      const std::uint64_t kind = rng.below(3);
      const std::uint32_t value = static_cast<std::uint32_t>(rng.below(1u << 16));
      const Protocol mutant = rebuild_with(e.protocol, [&](std::size_t i, Op& op) {
        if (i != target) return true;
        switch (kind) {
          case 0:  // drop
            return false;
          case 1:  // retime
            op.pebble.time = value % (size.T + 1);
            return true;
          default:  // retarget
            if (op.kind == OpKind::kGenerate) {
              op.pebble.node = value % size.n;
            } else {
              op.partner = value % m;
            }
            return true;
        }
      });
      ++compared;
      if (!expect_same_verdict(mutant, e.guest, e.host)) ++rejected;
    }
  }
  EXPECT_EQ(compared, 480u);
  EXPECT_GT(rejected, compared / 4) << "the mutations should mostly break legality";
}

}  // namespace
}  // namespace upn
