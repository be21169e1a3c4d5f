// Tests for the UPN_REQUIRE / UPN_ENSURE / UPN_INVARIANT contract layer:
// the macros themselves, and one violation per instrumented module, so every
// contract surface is known to actually fire (not just compile).
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/embedding.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/lowerbound/counting.hpp"
#include "src/lowerbound/fragment_census.hpp"
#include "src/lowerbound/spreading.hpp"
#include "src/pebble/fragment.hpp"
#include "src/pebble/protocol.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/path_schedule.hpp"
#include "src/routing/policies.hpp"
#include "src/routing/router.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/g0.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"
#include "tests/support/reference_fragment.hpp"

namespace upn {
namespace {

// ---- the macros themselves ------------------------------------------------

void require_fails() { UPN_REQUIRE(1 + 1 == 3, "arithmetic is broken"); }
void ensure_fails() { UPN_ENSURE(false, "postcondition"); }
void invariant_fails() { UPN_INVARIANT(false); }  // message is optional

TEST(Contracts, ThrowModeCarriesKindAndLocation) {
  try {
    require_fails();
    FAIL() << "UPN_REQUIRE did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.kind(), ContractKind::kRequire);
    const std::string what = e.what();
    EXPECT_NE(what.find("UPN_REQUIRE failed"), std::string::npos) << what;
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("contracts_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("arithmetic is broken"), std::string::npos) << what;
  }
  try {
    ensure_fails();
    FAIL() << "UPN_ENSURE did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.kind(), ContractKind::kEnsure);
  }
  try {
    invariant_fails();
    FAIL() << "UPN_INVARIANT did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.kind(), ContractKind::kInvariant);
  }
}

TEST(Contracts, ViolationIsALogicError) {
  EXPECT_THROW(require_fails(), std::logic_error);
}

TEST(Contracts, PassingContractIsSilent) {
  EXPECT_NO_THROW(UPN_REQUIRE(true, "never evaluated"));
  EXPECT_NO_THROW(UPN_ENSURE(2 + 2 == 4));
  EXPECT_NO_THROW(UPN_INVARIANT(true));
}

// ---- one triggered violation per instrumented module ----------------------

TEST(ContractAdoption, EmbeddingLoadRejectsZeroHosts) {
  EXPECT_THROW((void)embedding_load({0, 0, 1}, 0), ContractViolation);
  EXPECT_EQ(embedding_load({}, 0), 0u);  // empty embedding is the one legal m == 0 case
}

TEST(ContractAdoption, ProtocolStepPastTheEnd) {
  Protocol protocol{2, 2, 1};
  protocol.add_step({{Op{OpKind::kGenerate, 0, {0, 1}, 0}}});
  EXPECT_EQ(protocol.step(0).size(), 1u);
  EXPECT_THROW((void)protocol.step(1), ContractViolation);
}

TEST(ContractAdoption, RouterRejectsForeignPacketEndpoints) {
  const Graph host = make_cycle(4);
  SyncRouter router{host, PortModel::kSinglePort};
  GreedyPolicy policy{host};
  Packet packet;
  packet.src = 0;
  packet.dst = 9;  // not a host node
  packet.via = 0;
  EXPECT_THROW((void)router.route({packet}, policy), ContractViolation);
}

TEST(ContractAdoption, PathScheduleRejectsForeignDemand) {
  const Graph host = make_cycle(4);
  HhProblem problem{8};
  problem.add(6, 7);  // valid for the problem, out of range for this host
  EXPECT_THROW((void)schedule_paths(host, problem), ContractViolation);
}

TEST(ContractAdoption, SpreadingProfileRejectsForeignCenter) {
  const Graph guest = make_cycle(4);
  EXPECT_THROW((void)spreading_profile(guest, 4, 2), ContractViolation);
}

TEST(ContractAdoption, FragmentMultiplicityNeedsEvenDegree) {
  const Fragment fragment = testing::make_fragment(0, 2, {{0}}, {1});
  EXPECT_THROW((void)log2_multiplicity_bound(fragment, 3), ContractViolation);
  EXPECT_THROW((void)log2_multiplicity_bound(fragment, 0), ContractViolation);
  // A ragged fragment (|b| != n) or a processor id past the host is
  // refused when it is built.
  EXPECT_THROW((void)testing::make_fragment(0, 2, {{0}}, {1, 1}), ContractViolation);
  EXPECT_THROW((void)testing::make_fragment(0, 2, {{0}}, {2}), ContractViolation);
}

TEST(ContractAdoption, FragmentCensusNeedsAGuestStep) {
  Rng rng{1};
  const G0 g0 = make_g0(16, 8, rng);
  ThreadPool pool{1};
  EXPECT_THROW((void)run_fragment_census_par(g0, 2, 4, 0, 1, pool, CountingConstants{}),
               ContractViolation);
}

TEST(ContractAdoption, FaultPlanGeneratorsValidateInputs) {
  const Graph host = make_cycle(4);
  EXPECT_THROW((void)make_uniform_link_faults(host, 1.5, 1), ContractViolation);
  EXPECT_THROW((void)make_uniform_node_faults(host, -0.1, 1), ContractViolation);
  EXPECT_THROW((void)make_region_fault(host, 4, 1, 0), ContractViolation);
}

}  // namespace
}  // namespace upn
