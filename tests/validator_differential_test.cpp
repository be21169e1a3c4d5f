// Differential test of the bitset validator against the preserved
// unordered_set validator (tests/support/reference_validator.hpp): on the
// mutation-test corpus, the pebble-IO fuzz corpus and seeded random
// mutations of emitted protocols (tests/support/protocol_corpus.hpp), and on
// a single SEND across every (u, v) pair of hosts with isolated, degree-1
// and dense nodes, both must return byte-identical verdicts -- ok flag,
// error string and all three pebble counters.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/pebble/io.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/hypercube.hpp"
#include "tests/support/protocol_corpus.hpp"
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
/// Counts in `*one_op_rejections` a verdict that names the one-op rule.
bool expect_same_verdict(const Protocol& protocol, const Graph& guest, const Graph& host,
                         std::size_t* one_op_rejections = nullptr) {
  const ValidationResult fast = validate_protocol(protocol, guest, host);
  const ValidationResult reference = testing::reference_validate_protocol(protocol, guest, host);
  EXPECT_EQ(dump(fast), dump(reference));
  if (one_op_rejections != nullptr &&
      reference.error.find("processor already acted this step") != std::string::npos) {
    ++*one_op_rejections;
  }
  return reference.ok;
}

// ---- the validator_mutation_test corpus -----------------------------------

TEST(ValidatorDifferential, MutationCorpusOnTheUniversalProtocol) {
  const testing::Emitted e = testing::mutation_corpus_protocol();
  ASSERT_TRUE(expect_same_verdict(e.protocol, e.guest, e.host));
  std::size_t rejected = 0, one_op = 0;
  for (std::size_t target = 0; target < e.protocol.num_ops(); ++target) {
    for (const Protocol& mutant : testing::universal_mutants(e, target)) {
      if (!expect_same_verdict(mutant, e.guest, e.host, &one_op)) ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(one_op, 0u) << "no mutant reached the one-op-per-processor check";
}

TEST(ValidatorDifferential, MutationCorpusOnTheSelfHealingProtocol) {
  const testing::SelfHealing healing = testing::self_healing_protocol();
  const testing::Emitted& e = healing.emitted;
  ASSERT_TRUE(expect_same_verdict(e.protocol, e.guest, e.host));
  ASSERT_TRUE(expect_same_verdict(e.protocol, e.guest, healing.survivors));
  for (std::size_t target = 0; target < e.protocol.num_ops(); ++target) {
    for (const testing::HostedMutant& mutant : testing::self_healing_mutants(healing, target)) {
      for (const Graph* host : mutant.hosts) expect_same_verdict(mutant.protocol, e.guest, *host);
    }
  }
}

// ---- the pebble-IO fuzz corpus ---------------------------------------------

/// Validates a parsed protocol against graphs of its own header sizes
/// (complete graphs: every send has a neighbor), and against a mismatch.
/// Returns false when the parser rejects the text or its sizes are huge.
bool expect_same_verdict_on_text(const std::string& text, std::size_t& one_op_rejections) {
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
  expect_same_verdict(protocol, guest, host, &one_op_rejections);
  expect_same_verdict(protocol, make_cycle(protocol.num_guests() + 3), host,
                      &one_op_rejections);
  return true;
}

TEST(ValidatorDifferential, PebbleIoFuzzCorpus) {
  std::size_t validated = 0, one_op = 0;
  for (const std::string& text : testing::pebble_io_fuzz_texts()) {
    if (expect_same_verdict_on_text(text, one_op)) ++validated;
  }
  EXPECT_GT(validated, 100u) << "too few fuzz inputs parsed to exercise the validators";
  EXPECT_GT(one_op, 0u) << "no fuzz input reached the one-op-per-processor check";
}

// ---- seeded random mutations of emitted protocols --------------------------

TEST(ValidatorDifferential, RandomMutationsOfEmittedProtocols) {
  std::size_t compared = 0, rejected = 0;
  for (const testing::MutationSize& size : testing::kRandomMutationSizes) {
    const testing::Emitted e = testing::random_mutation_base(size);
    ASSERT_TRUE(expect_same_verdict(e.protocol, e.guest, e.host));
    testing::for_each_random_mutant(e, size, [&](const Protocol& mutant) {
      ++compared;
      if (!expect_same_verdict(mutant, e.guest, e.host)) ++rejected;
    });
  }
  EXPECT_EQ(compared, 480u);
  EXPECT_GT(rejected, compared / 4) << "the mutations should mostly break legality";
}

// ---- the host neighbor check -----------------------------------------------

/// A host with node 0 isolated, node 1 of degree 1 (linked to 2) and a cycle
/// on the rest.
Graph host_with_isolated_and_leaf(std::uint32_t m) {
  GraphBuilder builder{m, "isolated+leaf+cycle"};
  builder.add_edge(1, 2);
  for (NodeId u = 2; u < m; ++u) builder.add_edge(u, u + 1 < m ? u + 1 : 2);
  return std::move(builder).build();
}

/// For every ordered pair (u, v), a protocol whose only op is u sending an
/// initial pebble to v -- answered by v's receive when v != u -- must get
/// the same verdict from both validators: legal exactly on host links.  So
/// must v receiving from u with no send, whose error names the missing link
/// or the missing send.
void expect_same_send_verdicts(const Graph& host) {
  const std::uint32_t m = host.num_nodes();
  const Graph guest = make_cycle(3);
  std::size_t legal = 0;
  for (NodeId u = 0; u < m; ++u) {
    for (NodeId v = 0; v < m; ++v) {
      Protocol send{guest.num_nodes(), m, 0};
      std::vector<Op> ops{Op{OpKind::kSend, u, PebbleType{1, 0}, v}};
      if (v != u) ops.push_back(Op{OpKind::kReceive, v, PebbleType{1, 0}, u});
      send.add_step(ops);
      const bool ok = expect_same_verdict(send, guest, host);
      EXPECT_EQ(ok, host.has_edge(u, v)) << u << " -> " << v;
      if (ok) ++legal;
      Protocol receive{guest.num_nodes(), m, 0};
      receive.add_step({{Op{OpKind::kReceive, v, PebbleType{1, 0}, u}}});
      EXPECT_FALSE(expect_same_verdict(receive, guest, host)) << u << " -> " << v;
    }
  }
  EXPECT_EQ(legal, 2 * host.num_edges());
}

TEST(ValidatorDifferential, EmptyGuestNeedsNoHoldings) {
  Protocol protocol{0, 2, 1};
  protocol.add_step({});
  EXPECT_TRUE(expect_same_verdict(protocol, Graph{}, make_path(2)));
}

TEST(ValidatorDifferential, SingleSendOnEveryPairOfSparseAndDenseHosts) {
  expect_same_send_verdicts(host_with_isolated_and_leaf(9));
  expect_same_send_verdicts(make_complete(70));
  expect_same_send_verdicts(make_hypercube(7));
}

}  // namespace
}  // namespace upn
