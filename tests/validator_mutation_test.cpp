// Failure injection: targeted mutations of valid protocols must be caught
// by the validator -- each mutation class breaks a specific Section 3.1
// rule, and the error message must name it.
#include <gtest/gtest.h>

#include "src/core/embedding.hpp"
#include "src/core/fault_tolerant_sim.hpp"
#include "src/core/universal_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/surgery.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "tests/support/protocol_corpus.hpp"

namespace upn {
namespace {

struct Fixture {
  Graph guest;
  Graph host;
  Protocol protocol{1, 1, 1};
};

Fixture make_fixture() {
  Rng rng{777};
  Fixture fx;
  fx.guest = make_random_regular(24, 4, rng);
  fx.host = make_butterfly(2);
  UniversalSimulator sim{fx.guest, fx.host,
                         make_random_embedding(24, fx.host.num_nodes(), rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  UniversalSimResult result = sim.run(3, options);
  fx.protocol = std::move(*result.protocol);
  return fx;
}

// A mutation passed to rebuild_with that returns false removes the op: the
// fault-injection mutations below use this to model operations lost to
// hardware failure.
using testing::rebuild_with;

/// Flat index of the first op satisfying `pred`.
std::size_t find_op(const Protocol& protocol, const std::function<bool(const Op&)>& pred) {
  const std::vector<Op> ops = testing::flat_ops(protocol);
  for (std::size_t index = 0; index < ops.size(); ++index) {
    if (pred(ops[index])) return index;
  }
  return static_cast<std::size_t>(-1);
}

class MutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = make_fixture();
    ASSERT_TRUE(validate_protocol(fx_.protocol, fx_.guest, fx_.host).ok);
  }
  Fixture fx_;
};

TEST_F(MutationTest, DroppingReceivesBreaksValidityMostly) {
  // Turning a receive into a send of an initial pebble removes a holding.
  // Not every receive is load-bearing (the processor may obtain another
  // copy), but the bulk of them are: the chain of forwards or a later
  // generate must fail.  Scan the first receives and require that most
  // mutations are caught.
  std::size_t tested = 0, rejected = 0;
  std::vector<std::size_t> receive_indices;
  const std::vector<Op> ops = testing::flat_ops(fx_.protocol);
  for (std::size_t index = 0; index < ops.size(); ++index) {
    // Time-0 pebbles are initial (held by everyone), so dropping their
    // receives is legal; only generated pebbles' receives are load-bearing.
    if (ops[index].kind == OpKind::kReceive && ops[index].pebble.time >= 1) {
      receive_indices.push_back(index);
    }
  }
  ASSERT_FALSE(receive_indices.empty());
  for (std::size_t r = 0; r < receive_indices.size() && tested < 25; r += 7, ++tested) {
    const std::size_t target = receive_indices[r];
    const Protocol mutated = rebuild_with(fx_.protocol, [&](std::size_t i, Op& op) {
      if (i == target) {
        op.kind = OpKind::kSend;
        op.pebble = PebbleType{0, 0};  // initial pebble: always held
      }
      return true;
    });
    if (!validate_protocol(mutated, fx_.guest, fx_.host).ok) ++rejected;
  }
  EXPECT_GT(rejected * 2, tested) << rejected << " of " << tested << " caught";
}

TEST_F(MutationTest, ForwardDatedPebbleIsRejected) {
  // A send of a pebble from the FUTURE (time+1) cannot be held.
  const std::size_t target = find_op(fx_.protocol, [&](const Op& op) {
    return op.kind == OpKind::kSend && op.pebble.time + 1 < fx_.protocol.guest_steps();
  });
  ASSERT_NE(target, static_cast<std::size_t>(-1));
  const Protocol mutated = rebuild_with(fx_.protocol, [&](std::size_t i, Op& op) {
    if (i == target) ++op.pebble.time;
    return true;
  });
  const ValidationResult result = validate_protocol(mutated, fx_.guest, fx_.host);
  EXPECT_FALSE(result.ok);
}

TEST_F(MutationTest, RewiringAPartnerIsRejected) {
  // Point a receive at a non-matching partner: pairing check fires.
  const std::size_t target =
      find_op(fx_.protocol, [](const Op& op) { return op.kind == OpKind::kReceive; });
  ASSERT_NE(target, static_cast<std::size_t>(-1));
  const Protocol mutated = rebuild_with(fx_.protocol, [&](std::size_t i, Op& op) {
    if (i == target) {
      // Any other neighbor of the receiving processor.
      for (const NodeId nb : fx_.host.neighbors(op.proc)) {
        if (nb != op.partner) {
          op.partner = nb;
          break;
        }
      }
    }
    return true;
  });
  const ValidationResult result = validate_protocol(mutated, fx_.guest, fx_.host);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("matching send"), std::string::npos);
}

TEST_F(MutationTest, DroppingFinalGenerateIsRejected) {
  // Retime a final-level generate to a mid level: its guest's final pebble
  // disappears.
  const std::uint32_t T = fx_.protocol.guest_steps();
  const std::size_t target = find_op(fx_.protocol, [&](const Op& op) {
    return op.kind == OpKind::kGenerate && op.pebble.time == T;
  });
  ASSERT_NE(target, static_cast<std::size_t>(-1));
  const Protocol mutated = rebuild_with(fx_.protocol, [&](std::size_t i, Op& op) {
    if (i == target) op.pebble.time = T - 1;
    return true;
  });
  const ValidationResult result = validate_protocol(mutated, fx_.guest, fx_.host);
  EXPECT_FALSE(result.ok);
}

TEST_F(MutationTest, SecondOpOnABusyProcessorIsRejected) {
  // Move a step's last op to the processor of its first op: that processor
  // now acts twice in one host step.
  std::size_t end = 0, tested = 0;  // end: flat index past step s
  for (std::uint32_t s = 0; s < fx_.protocol.host_steps() && tested < 10; ++s) {
    const OpView step = fx_.protocol.step(s);
    end += step.size();
    if (step.size() < 2) continue;
    ++tested;
    const std::size_t last = end - 1;
    const std::uint32_t busy = step[0].proc;
    const Protocol mutated = rebuild_with(fx_.protocol, [&](std::size_t i, Op& op) {
      if (i == last) op.proc = busy;
      return true;
    });
    const ValidationResult result = validate_protocol(mutated, fx_.guest, fx_.host);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error.rfind("step " + std::to_string(s) + ": ", 0), 0u) << result.error;
    EXPECT_NE(result.error.find("processor already acted this step (at most one operation per "
                                "processor per host step)"),
              std::string::npos)
        << result.error;
  }
  EXPECT_EQ(tested, 10u);
}

TEST_F(MutationTest, UnmutatedCopyStaysValid) {
  const Protocol copy = rebuild_with(fx_.protocol, [](std::size_t, Op&) { return true; });
  EXPECT_TRUE(validate_protocol(copy, fx_.guest, fx_.host).ok);
}

// ---- Fault-flavored mutations ---------------------------------------------
//
// The fixture is a self-healing simulation on a host whose processor 0 died
// at step 0, so the valid protocol avoids the dead hardware entirely and
// validates against the surviving host graph.  Each mutation re-introduces a
// fault symptom the healing layer must have repaired -- the validator has to
// catch all of them.

class FaultMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng{4242};
    guest_ = make_random_regular(16, 3, rng);
    host_ = make_butterfly(2);
    plan_.add_node_fault(NodeFault{0, 0});
    std::vector<NodeId> embedding;
    for (NodeId u = 0; u < guest_.num_nodes(); ++u) {
      embedding.push_back(u % host_.num_nodes());
    }
    FaultTolerantSimulator sim{guest_, host_, plan_, embedding};
    FaultSimOptions options;
    options.emit_protocol = true;
    FaultSimResult result = sim.run(3, options);
    ASSERT_TRUE(result.completed);
    protocol_ = std::move(*result.protocol);
    survivors_ = surviving_edges_graph(host_, plan_);
    ASSERT_TRUE(validate_protocol(protocol_, guest_, host_).ok);
    ASSERT_TRUE(validate_protocol(protocol_, guest_, survivors_).ok);
  }

  Graph guest_;
  Graph host_;
  FaultPlan plan_;
  Graph survivors_{};
  Protocol protocol_{1, 1, 1};
};

TEST_F(FaultMutationTest, LostReceiveIsRejected) {
  // Drop receives of generated pebbles, as if the packet died in flight
  // WITHOUT the sender retransmitting.  The receiver no longer holds the
  // pebble, so a later forward or generate must fail.  Not every receive is
  // load-bearing, but at least one must be -- and every rejection must name
  // the missing holding.
  std::vector<std::size_t> receive_indices;
  const std::vector<Op> ops = testing::flat_ops(protocol_);
  for (std::size_t index = 0; index < ops.size(); ++index) {
    if (ops[index].kind == OpKind::kReceive && ops[index].pebble.time >= 1) {
      receive_indices.push_back(index);
    }
  }
  ASSERT_FALSE(receive_indices.empty());
  std::size_t rejected = 0;
  for (const std::size_t target : receive_indices) {
    const Protocol mutated = rebuild_with(
        protocol_, [&](std::size_t i, Op&) { return i != target; });
    const ValidationResult result = validate_protocol(mutated, guest_, host_);
    if (result.ok) continue;
    ++rejected;
    const bool named = result.error.find("does not hold the pebble") != std::string::npos ||
                       result.error.find("missing") != std::string::npos;
    EXPECT_TRUE(named) << result.error;
  }
  EXPECT_GT(rejected, 0u);
}

TEST_F(FaultMutationTest, GenerateOnFailedHostIsRejected) {
  // Relocate a generate to the dead processor.  Processor 0 never received
  // anything, so it only holds initial pebbles and cannot have the time >= 2
  // predecessors the generate rule demands.
  const std::size_t target = find_op(protocol_, [](const Op& op) {
    return op.kind == OpKind::kGenerate && op.pebble.time >= 2;
  });
  ASSERT_NE(target, static_cast<std::size_t>(-1));
  const Protocol mutated = rebuild_with(protocol_, [&](std::size_t i, Op& op) {
    if (i == target) op.proc = 0;
    return true;
  });
  const ValidationResult result = validate_protocol(mutated, guest_, host_);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("missing own predecessor"), std::string::npos)
      << result.error;
}

TEST_F(FaultMutationTest, OpOnRemovedEdgeIsRejected) {
  // Rewire a send across an edge that died with processor 0.  On the
  // original host the link exists; on the surviving host it does not, and
  // the neighbor check must fire.
  const std::size_t target = find_op(protocol_, [&](const Op& op) {
    return op.kind == OpKind::kSend && host_.has_edge(op.proc, 0);
  });
  ASSERT_NE(target, static_cast<std::size_t>(-1));
  const Protocol mutated = rebuild_with(protocol_, [&](std::size_t i, Op& op) {
    if (i == target) op.partner = 0;
    return true;
  });
  const ValidationResult result = validate_protocol(mutated, guest_, survivors_);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("partner is not a host neighbor"), std::string::npos)
      << result.error;
}

}  // namespace
}  // namespace upn
