// End-to-end integration: the full pipeline of the paper in one test file.
//
//   G_0 (Def 3.9) -> planted 16-regular guest (U[G_0]) -> Theorem 2.1
//   simulation on a butterfly host -> Section 3.1 protocol -> validation ->
//   metrics -> fragments (Def 3.2) -> Lemma 3.3 multiplicity -> Lemma 3.12
//   averaging -> Theorem 3.1 verdicts.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/lowerbound/lemma_verify.hpp"
#include "src/lowerbound/tradeoff.hpp"
#include "src/pebble/fragment.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/g0.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/math.hpp"

namespace upn {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng{0xf00d};
    host_ = make_butterfly(2);  // m = 12
    const std::uint32_t m = host_.num_nodes();
    const std::uint32_t a = g0_block_parameter(m);
    n_ = g0_round_guest_size(60, a);
    g0_ = make_g0(n_, m, rng);
    guest_ = make_random_regular_with_subgraph(g0_.graph, kGuestDegree, rng);
    simulator_.emplace(guest_, host_, make_random_embedding(n_, m, rng));
    UniversalSimOptions options;
    options.emit_protocol = true;
    options.seed = 0xcafe;
    result_ = simulator_->run(T_, options);
  }

  static constexpr std::uint32_t T_ = 16;
  std::uint32_t n_ = 0;
  Graph host_;
  G0 g0_;
  Graph guest_;
  std::optional<UniversalSimulator> simulator_;
  UniversalSimResult result_;
};

TEST_F(PipelineTest, SimulationIsCorrectAndProtocolValid) {
  EXPECT_TRUE(result_.configs_match);
  ASSERT_TRUE(result_.protocol.has_value());
  const ValidationResult validation = validate_protocol(*result_.protocol, guest_, host_);
  EXPECT_TRUE(validation.ok) << validation.error;
  // Every guest's every step got generated exactly... at least n*T generates.
  EXPECT_GE(validation.pebbles_generated, static_cast<std::uint64_t>(n_) * T_);
}

TEST_F(PipelineTest, MeasuredSlowdownSitsBetweenBounds) {
  const double m = host_.num_nodes();
  const double load_bound = n_ / m;
  const double paper_shape = load_bound * std::log2(m);
  EXPECT_GE(result_.slowdown, load_bound);
  // The single-port simulator should land within a constant of the
  // (n/m) log m upper-bound shape -- wide bracket to stay robust.
  EXPECT_LE(result_.slowdown, 40.0 * paper_shape);
  EXPECT_GE(result_.slowdown, 0.25 * paper_shape);
}

TEST_F(PipelineTest, FragmentsExtractAndBoundMultiplicity) {
  const ProtocolMetrics metrics{*result_.protocol};
  // Every guest time t0 < T admits a fragment (our simulator generates all
  // pebbles of every level).
  const Fragment fragment = extract_fragment(metrics, T_ / 2);
  EXPECT_EQ(fragment.num_guests(), n_);
  // Lemma 3.3: multiplicity bound must be finite (|D_i| >= c/2) because the
  // generator of (P_i, t0+1) held all 16 neighbor configurations.
  const double log_x = log2_multiplicity_bound(fragment, kGuestDegree);
  EXPECT_GT(log_x, 0.0);
  EXPECT_TRUE(std::isfinite(log_x));
  // And it is at most the trivial bound n * log2 C(n, 8).
  EXPECT_LE(log_x, n_ * log2_binomial(n_, 8));
  // D_i must contain all guest neighbors of i (the generator's holdings).
  for (NodeId i = 0; i < n_; ++i) {
    for (const NodeId nb : guest_.neighbors(i)) {
      EXPECT_TRUE(std::binary_search(fragment.D(i).begin(), fragment.D(i).end(), nb));
    }
  }
}

TEST_F(PipelineTest, Lemma312HoldsEndToEnd) {
  const ProtocolMetrics metrics{*result_.protocol};
  const Lemma312Report report = verify_lemma312(metrics, g0_);
  EXPECT_TRUE(report.z_large_enough);
  ASSERT_FALSE(report.choices.empty());
  for (const auto& choice : report.choices) {
    EXPECT_TRUE(choice.roots_ok);
    EXPECT_TRUE(choice.trees_ok);
  }
}

TEST_F(PipelineTest, TradeoffVerdictConsistentWithMeasurement) {
  // The measured simulation is a real universal-simulation data point; it
  // cannot violate the lower bound with paper constants.
  const TradeoffVerdict verdict =
      check_network(n_, host_.num_nodes(), result_.slowdown);
  EXPECT_FALSE(verdict.ruled_out_paper_constants);
  // And the measured m*s product should be in the vicinity of n log m
  // (Theorem 2.1 upper bound): within a generous constant.
  EXPECT_GT(verdict.proposed_ms, 0.2 * verdict.bound_nlogm);
}

TEST_F(PipelineTest, InefficiencyDefinitionsAgree) {
  const ProtocolMetrics metrics{*result_.protocol};
  EXPECT_NEAR(metrics.inefficiency(), result_.inefficiency, 1e-9);
  EXPECT_NEAR(result_.protocol->inefficiency(), result_.inefficiency, 1e-9);
}

}  // namespace
}  // namespace upn
