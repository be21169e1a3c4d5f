#include "src/core/pipeline.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/lowerbound/dependency_tree.hpp"
#include "src/pebble/fragment.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/g0.hpp"
#include "src/topology/random_regular.hpp"

namespace upn {

PipelineReport run_paper_pipeline(const PipelineConfig& config) {
  Rng rng{config.seed};
  PipelineReport report;

  // ---- Construction: host, G_0, planted guest. ----
  const Graph host = make_butterfly(config.butterfly_dimension);
  report.m = host.num_nodes();
  report.a = g0_block_parameter(report.m);
  report.n = g0_round_guest_size(config.guest_size_hint, report.a);
  // The guest is kGuestDegree-regular, which needs more than kGuestDegree
  // nodes; the smallest G_0 (side 2a = 4) has only 16.
  if (report.n <= kGuestDegree) {
    throw std::invalid_argument{"run_paper_pipeline: guest_size_hint (" +
                                std::to_string(config.guest_size_hint) + ") rounds to n = " +
                                std::to_string(report.n) + ", but a " +
                                std::to_string(kGuestDegree) + "-regular guest needs n > " +
                                std::to_string(kGuestDegree)};
  }
  const G0 g0 = make_g0(report.n, report.m, rng);
  // Lemma 3.12 needs a horizon longer than its dependency trees are deep;
  // fail here rather than after the whole simulation.
  const std::uint32_t depth = canonical_dependency_tree(g0.layout).depth;
  if (config.guest_steps <= depth) {
    throw std::invalid_argument{"run_paper_pipeline: guest_steps (" +
                                std::to_string(config.guest_steps) +
                                ") must exceed the Lemma 3.12 dependency-tree depth (" +
                                std::to_string(depth) + ")"};
  }
  report.expander_beta = g0.expander.beta;
  const Graph guest = make_random_regular_with_subgraph(g0.graph, kGuestDegree, rng);

  // ---- Theorem 2.1 simulation with protocol emission. ----
  UniversalSimulator sim{guest, host, make_random_embedding(report.n, report.m, rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  options.seed = rng();
  const UniversalSimResult result = sim.run(config.guest_steps, options);
  report.slowdown = result.slowdown;
  report.inefficiency = result.inefficiency;
  report.load_bound = static_cast<double>(report.n) / report.m;
  report.paper_shape = report.load_bound * std::log2(static_cast<double>(report.m));
  report.configs_verified = result.configs_match;

  // ---- Section 3.1 validation. ----
  const ValidationResult validation = validate_protocol(*result.protocol, guest, host);
  report.protocol_valid = validation.ok;
  report.protocol_error = validation.error;
  report.protocol_ops = result.protocol->num_ops();

  // ---- Lower-bound machinery on the emitted protocol. ----
  const ProtocolMetrics metrics{*result.protocol};
  const Lemma312Report lemma = verify_lemma312(metrics, g0);
  report.z_size = static_cast<std::uint32_t>(lemma.z_set.size());
  report.lemma312_holds = lemma.z_large_enough && !lemma.choices.empty();
  for (const Lemma312Choice& choice : lemma.choices) {
    report.lemma312_holds = report.lemma312_holds && choice.roots_ok && choice.trees_ok;
  }
  const ExpansionReport expansion =
      analyze_expansion(metrics, g0.expander.alpha, g0.expander.beta);
  report.expansion_caps_hold = expansion.all_ok;
  const Fragment fragment = extract_fragment(metrics, config.guest_steps / 2);
  report.fragment_log2_multiplicity = log2_multiplicity_bound(fragment, kGuestDegree);
  report.fragment_sum_b = fragment.total_b_size();

  // ---- Theorem 3.1 verdict on this real data point. ----
  const TradeoffVerdict verdict = check_network(report.n, report.m, report.slowdown);
  report.ruled_out_by_counting = verdict.ruled_out_paper_constants;
  return report;
}

}  // namespace upn
