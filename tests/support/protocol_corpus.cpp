#include "tests/support/protocol_corpus.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/embedding.hpp"
#include "src/core/fault_tolerant_sim.hpp"
#include "src/core/universal_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/surgery.hpp"
#include "src/lowerbound/dependency_tree.hpp"
#include "src/pebble/io.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/rng.hpp"

namespace upn::testing {

Emitted emit_universal(std::uint32_t n, std::uint32_t degree, Graph host, std::uint32_t T,
                       std::uint64_t seed) {
  Rng rng{seed};
  Emitted e;
  e.guest = make_random_regular(n, degree, rng);
  e.host = std::move(host);
  UniversalSimulator sim{e.guest, e.host, make_random_embedding(n, e.host.num_nodes(), rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  UniversalSimResult result = sim.run(T, options);
  e.protocol = std::move(*result.protocol);
  return e;
}

std::vector<Op> flat_ops(const Protocol& protocol) {
  std::vector<Op> ops;
  ops.reserve(protocol.num_ops());
  for (std::uint32_t s = 0; s < protocol.host_steps(); ++s) {
    for (const Op& op : protocol.step(s)) ops.push_back(op);
  }
  return ops;
}

Protocol rebuild_with(const Protocol& original,
                      const std::function<bool(std::size_t, Op&)>& mutate) {
  Protocol out{original.num_guests(), original.num_hosts(), original.guest_steps()};
  std::size_t index = 0;
  std::vector<Op> ops;
  for (std::uint32_t s = 0; s < original.host_steps(); ++s) {
    ops.clear();
    for (Op op : original.step(s)) {
      if (mutate(index++, op)) ops.push_back(op);
    }
    out.add_step(ops);
  }
  return out;
}

Emitted mutation_corpus_protocol() { return emit_universal(24, 4, make_butterfly(2), 3, 777); }

std::vector<Protocol> universal_mutants(const Emitted& e, std::size_t target) {
  const Op op = flat_ops(e.protocol)[target];
  const std::uint32_t T = e.protocol.guest_steps();
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
  // The op moved to a processor that already acts in its step: the step's
  // first op's, or its second's when the op is the first.
  std::size_t first = 0;
  std::uint32_t s = 0;
  while (first + e.protocol.step(s).size() <= target) first += e.protocol.step(s++).size();
  const OpView step = e.protocol.step(s);
  if (step.size() >= 2) {
    const std::uint32_t busy = step[target == first ? 1 : 0].proc;
    mutants.push_back(rebuild_with(e.protocol, [&](std::size_t i, Op& o) {
      if (i == target) o.proc = busy;
      return true;
    }));
  }
  return mutants;
}

SelfHealing self_healing_protocol() {
  Rng rng{4242};
  SelfHealing healing;
  Emitted& e = healing.emitted;
  e.guest = make_random_regular(16, 3, rng);
  e.host = make_butterfly(2);
  FaultPlan plan;
  plan.add_node_fault(NodeFault{0, 0});
  std::vector<NodeId> embedding;
  for (NodeId u = 0; u < e.guest.num_nodes(); ++u) embedding.push_back(u % e.host.num_nodes());
  FaultTolerantSimulator sim{e.guest, e.host, plan, embedding};
  FaultSimOptions options;
  options.emit_protocol = true;
  FaultSimResult result = sim.run(3, options);
  if (!result.completed) throw std::logic_error{"self_healing_protocol: run did not complete"};
  e.protocol = std::move(*result.protocol);
  healing.survivors = surviving_edges_graph(e.host, plan);
  return healing;
}

std::vector<HostedMutant> self_healing_mutants(const SelfHealing& healing, std::size_t target) {
  const Protocol& protocol = healing.emitted.protocol;
  const Graph& host = healing.emitted.host;
  const Op op = flat_ops(protocol)[target];
  std::vector<HostedMutant> mutants;
  // Lost receive: the packet died without a retransmission.
  if (op.kind == OpKind::kReceive) {
    mutants.push_back(
        {rebuild_with(protocol, [&](std::size_t i, Op&) { return i != target; }), {&host}});
  }
  // A generate relocated to the dead processor.
  if (op.kind == OpKind::kGenerate && op.pebble.time >= 2) {
    mutants.push_back({rebuild_with(protocol,
                                    [&](std::size_t i, Op& o) {
                                      if (i == target) o.proc = 0;
                                      return true;
                                    }),
                       {&host}});
  }
  // A send rewired across an edge that died with processor 0.
  if (op.kind == OpKind::kSend && host.has_edge(op.proc, 0)) {
    mutants.push_back({rebuild_with(protocol,
                                    [&](std::size_t i, Op& o) {
                                      if (i == target) o.partner = 0;
                                      return true;
                                    }),
                       {&healing.survivors, &host}});
  }
  return mutants;
}

namespace {

std::string valid_text() {
  Protocol protocol{3, 4, 2};
  protocol.add_step({{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0},
                      Op{OpKind::kSend, 1, PebbleType{2, 0}, 2},
                      Op{OpKind::kReceive, 2, PebbleType{2, 0}, 1}}});
  protocol.add_step({{Op{OpKind::kGenerate, 1, PebbleType{1, 1}, 0}}});
  std::ostringstream out;
  write_protocol(out, protocol);
  return out.str();
}

}  // namespace

std::vector<std::string> pebble_io_fuzz_texts() {
  const std::string text = valid_text();
  std::vector<std::string> texts;
  for (std::size_t len = 0; len <= text.size(); ++len) texts.push_back(text.substr(0, len));
  const char alphabet[] = "0123456789GSR step\n-x";
  Rng rng{0xf022};
  // Most draws break the syntax, so keep drawing until enough of them parse.
  for (int iter = 0; iter < 5000; ++iter) {
    std::string mutated = text;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = alphabet[rng.below(sizeof(alphabet) - 1)];
    }
    texts.push_back(std::move(mutated));
  }
  return texts;
}

Emitted random_mutation_base(const MutationSize& size) {
  return emit_universal(size.n, size.degree, make_butterfly(size.d), size.T, 91 + size.n);
}

void for_each_random_mutant(const Emitted& base, const MutationSize& size,
                            const std::function<void(const Protocol&)>& visit) {
  const std::uint64_t num_ops = base.protocol.num_ops();
  const std::uint32_t m = base.protocol.num_hosts();
  Rng rng{size.n * 1000003ull + size.T};
  for (int iter = 0; iter < 120; ++iter) {
    const std::size_t target = rng.below(num_ops);
    const std::uint64_t kind = rng.below(3);
    const std::uint32_t value = static_cast<std::uint32_t>(rng.below(1u << 16));
    visit(rebuild_with(base.protocol, [&](std::size_t i, Op& op) {
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
    }));
  }
}

PlantedProtocol pipeline_protocol(const PipelineConfig& config) {
  Rng rng{config.seed};
  const Graph host = make_butterfly(config.butterfly_dimension);
  const std::uint32_t m = host.num_nodes();
  const std::uint32_t n = g0_round_guest_size(config.guest_size_hint, g0_block_parameter(m));
  PlantedProtocol planted{"hint " + std::to_string(config.guest_size_hint) + ", d " +
                              std::to_string(config.butterfly_dimension) + ", T " +
                              std::to_string(config.guest_steps) + ", seed " +
                              std::to_string(config.seed),
                          make_g0(n, m, rng)};
  const Graph guest = make_random_regular_with_subgraph(planted.g0.graph, kGuestDegree, rng);
  UniversalSimulator sim{guest, host, make_random_embedding(n, m, rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  options.seed = rng();
  planted.protocol = std::move(*sim.run(config.guest_steps, options).protocol);
  return planted;
}

namespace {

PipelineConfig config_of(std::uint32_t hint, std::uint32_t dimension, std::uint32_t steps,
                         std::uint64_t seed) {
  PipelineConfig config;
  config.guest_size_hint = hint;
  config.butterfly_dimension = dimension;
  config.guest_steps = steps;
  config.seed = seed;
  return config;
}

/// lemma_verify_test's fixture: n = 64 on butterfly(2), 14 steps.
PlantedProtocol lemma_verify_fixture() {
  Rng rng{2024};
  const std::uint32_t m = 12;
  const std::uint32_t n = g0_round_guest_size(60, g0_block_parameter(m));
  PlantedProtocol planted{"lemma_verify_test fixture", make_g0(n, m, rng)};
  const Graph guest = make_random_regular_with_subgraph(planted.g0.graph, kGuestDegree, rng);
  const Graph host = make_butterfly(2);
  UniversalSimulator sim{guest, host, make_random_embedding(n, m, rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  planted.protocol = std::move(*sim.run(14, options).protocol);
  return planted;
}

}  // namespace

std::vector<PlantedProtocol> lowerbound_corpus() {
  const PipelineConfig defaults;
  // The tree depth depends only on the block side, 2a = 4 on butterfly(2).
  const std::uint32_t depth = canonical_dependency_tree(multitorus_layout(16, 4)).depth;

  std::vector<PipelineConfig> configs = {
      // pipeline_test's configs.
      config_of(64, 2, 14, defaults.seed), config_of(64, 2, 12, 99),
      config_of(64, 2, depth + 1, defaults.seed), config_of(17, 2, 16, defaults.seed),
      config_of(144, 2, 16, defaults.seed), config_of(1296, 4, 16, 71)};
  // Seeded protocols: a = 2 on butterfly(2), a = 3 on butterfly(3).
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    configs.push_back(config_of(64, 2, 10 + 3 * seed, seed));
    configs.push_back(config_of(144, 3, 14 + 2 * seed, seed));
    configs.push_back(config_of(324, 3, 16, 100 + seed));
  }
  std::vector<PlantedProtocol> corpus;
  corpus.push_back(lemma_verify_fixture());
  for (const PipelineConfig& config : configs) corpus.push_back(pipeline_protocol(config));
  return corpus;
}

}  // namespace upn::testing
