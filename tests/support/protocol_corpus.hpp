// The protocol corpus shared by the differential suites: the
// validator_mutation_test mutants of an emitted universal protocol and of a
// self-healing one, the pebble-IO fuzz texts, and seeded random mutations of
// emitted protocols.  tests/validator_differential_test.cpp replays every
// member through both validators; tests/metrics_differential_test.cpp
// indexes every member that validates with both ProtocolMetrics builders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/pebble/protocol.hpp"
#include "src/topology/g0.hpp"
#include "src/topology/graph.hpp"

namespace upn::testing {

/// A protocol with the guest and host it was emitted for.
struct Emitted {
  Graph guest;
  Graph host;
  Protocol protocol{1, 1, 1};
};

/// UniversalSimulator's protocol for T steps of a random `degree`-regular
/// n-node guest, randomly embedded in `host`.
[[nodiscard]] Emitted emit_universal(std::uint32_t n, std::uint32_t degree, Graph host,
                                     std::uint32_t T, std::uint64_t seed);

/// Every op of every host step, in step order: index k is the flat index
/// rebuild_with() and the mutants use.
[[nodiscard]] std::vector<Op> flat_ops(const Protocol& protocol);

/// Rebuilds the protocol applying `mutate` to each op (by flat index); a
/// mutation returning false drops the op.
[[nodiscard]] Protocol rebuild_with(const Protocol& original,
                                    const std::function<bool(std::size_t, Op&)>& mutate);

/// The universal protocol of the validator_mutation_test corpus
/// (n = 24, degree 4, butterfly(2), T = 3).
[[nodiscard]] Emitted mutation_corpus_protocol();

/// The validator_mutation_test mutants of op `target` of `e`: a receive
/// turned into a send of an initial pebble or pointed at another neighbor, a
/// send of a pebble from the future, a final generate retimed a level down,
/// and the op moved to a processor that already acts in its step.
[[nodiscard]] std::vector<Protocol> universal_mutants(const Emitted& e, std::size_t target);

/// FaultTolerantSimulator's protocol around a dead processor 0, with the
/// host graph that lost processor 0's links.
struct SelfHealing {
  Emitted emitted;
  Graph survivors;
};
[[nodiscard]] SelfHealing self_healing_protocol();

/// A mutant and the hosts it is replayed against.
struct HostedMutant {
  Protocol protocol;
  std::vector<const Graph*> hosts;
};

/// The mutants of op `target` of the self-healing protocol: a lost
/// receive, a generate moved to the dead processor, a send rewired to it.
[[nodiscard]] std::vector<HostedMutant> self_healing_mutants(const SelfHealing& healing,
                                                             std::size_t target);

/// The pebble-IO fuzz texts: every prefix of a small valid .upnp text, then
/// 5000 seeded random edits of it.  pebble_io_fuzz_test reads them all; the
/// differential suites validate the ones that parse.
[[nodiscard]] std::vector<std::string> pebble_io_fuzz_texts();

/// A size of the random-mutation corpus: n-node `degree`-regular guest on
/// butterfly(d) for T steps.
struct MutationSize {
  std::uint32_t n, degree, d, T;
};
inline constexpr MutationSize kRandomMutationSizes[] = {
    {24, 4, 2, 3}, {48, 6, 2, 5}, {96, 4, 3, 2}, {64, 16, 3, 4}};

/// The emitted protocol a random-mutation size starts from.
[[nodiscard]] Emitted random_mutation_base(const MutationSize& size);

/// Calls `visit` on each of 120 seeded random mutants of `base` (drop,
/// retime or retarget one op).
void for_each_random_mutant(const Emitted& base, const MutationSize& size,
                            const std::function<void(const Protocol&)>& visit);

/// A protocol emitted for a guest that contains G_0, with that G_0: the
/// input of the lower-bound stages (Lemma 3.12, fragments).
struct PlantedProtocol {
  std::string name;
  G0 g0;
  Protocol protocol{1, 1, 1};
};

/// run_paper_pipeline's G_0 and emitted protocol for `config`: its stages,
/// in its order, with its random stream.
[[nodiscard]] PlantedProtocol pipeline_protocol(const PipelineConfig& config);

/// The lower-bound differential corpus: pipeline_test's configs,
/// lemma_verify_test's fixture, and seeded pipeline protocols with
/// a = 2 (butterfly(2)) and a = 3 (butterfly(3)).
[[nodiscard]] std::vector<PlantedProtocol> lowerbound_corpus();

}  // namespace upn::testing
