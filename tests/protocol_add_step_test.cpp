// Protocol::add_step against op-by-op Protocol::add.  Building every step of
// a protocol either way must leave the same ops, step offsets and host step
// count -- on every protocol of the differential corpus
// (tests/support/protocol_corpus.hpp) and on hand-made illegal steps, where
// both must also throw the same exception type and message and keep the
// same ops and processor bookkeeping after the throw.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "src/pebble/io.hpp"
#include "tests/support/protocol_corpus.hpp"

namespace upn {
namespace {

using Steps = std::vector<std::vector<Op>>;

Steps steps_of(const Protocol& protocol) {
  Steps steps;
  for (std::uint32_t s = 0; s < protocol.host_steps(); ++s) {
    const OpView ops = protocol.step(s);
    steps.emplace_back(ops.begin(), ops.end());
  }
  return steps;
}

/// Everything a build leaves observable, as one comparable string: the
/// error first, then the sizes, the steps, the ops and the processors still
/// free in the current step (probed among the first 64).
std::string dump(const Protocol& protocol, const std::string& error) {
  std::ostringstream os;
  os << "error=" << error << "\nhost_steps=" << protocol.host_steps()
     << " num_ops=" << protocol.num_ops() << "\n";
  for (std::uint32_t s = 0; s < protocol.host_steps(); ++s) {
    os << "step " << s << " size " << protocol.step(s).size() << "\n";
  }
  for (const Op& op : testing::flat_ops(protocol)) {
    os << static_cast<int>(op.kind) << ' ' << op.proc << ' ' << op.pebble.node << ' '
       << op.pebble.time << ' ' << op.partner << "\n";
  }
  if (protocol.host_steps() > 0) {
    Protocol probe = protocol;
    os << "free:";
    for (std::uint32_t q = 0; q < std::min(probe.num_hosts(), 64u); ++q) {
      try {
        probe.add(Op{OpKind::kGenerate, q, PebbleType{0, 0}, 0});
        os << ' ' << q;
      } catch (const std::logic_error&) {
      }
    }
    os << "\n";
  }
  return os.str();
}

/// Builds `steps` on a fresh protocol of `shape`'s sizes, each step opened
/// by begin_step() unless `open_steps` is false, and dumps the outcome.
std::string build(const Protocol& shape, const Steps& steps, bool use_add_step,
                  bool open_steps = true) {
  Protocol protocol{shape.num_guests(), shape.num_hosts(), shape.guest_steps()};
  std::string error;
  try {
    for (const std::vector<Op>& step : steps) {
      if (open_steps) protocol.begin_step();
      if (use_add_step) {
        protocol.add_step(step);
      } else {
        for (const Op& op : step) protocol.add(op);
      }
    }
  } catch (const std::exception& e) {
    error = std::string{typeid(e).name()} + ": " + e.what();
  }
  return dump(protocol, error);
}

/// Both builds agree; returns the add_step build's dump.
std::string expect_same_build(const Protocol& shape, const Steps& steps,
                              bool open_steps = true) {
  const std::string by_step = build(shape, steps, true, open_steps);
  EXPECT_EQ(by_step, build(shape, steps, false, open_steps));
  return by_step;
}

/// Rebuilding a legal protocol step by step succeeds both ways, alike.
void expect_same_rebuild(const Protocol& protocol) {
  const std::string rebuilt = expect_same_build(protocol, steps_of(protocol));
  EXPECT_EQ(rebuilt.rfind("error=\n", 0), 0u) << rebuilt;
}

// ---- the differential corpus -------------------------------------------------

TEST(ProtocolAddStep, MutationCorpusOnTheUniversalProtocol) {
  const testing::Emitted e = testing::mutation_corpus_protocol();
  expect_same_rebuild(e.protocol);
  for (std::size_t target = 0; target < e.protocol.num_ops(); ++target) {
    for (const Protocol& mutant : testing::universal_mutants(e, target)) {
      expect_same_rebuild(mutant);
    }
  }
}

TEST(ProtocolAddStep, MutationCorpusOnTheSelfHealingProtocol) {
  const testing::SelfHealing healing = testing::self_healing_protocol();
  const Protocol& protocol = healing.emitted.protocol;
  expect_same_rebuild(protocol);
  for (std::size_t target = 0; target < protocol.num_ops(); ++target) {
    for (const testing::HostedMutant& mutant : testing::self_healing_mutants(healing, target)) {
      expect_same_rebuild(mutant.protocol);
    }
  }
}

TEST(ProtocolAddStep, PebbleIoFuzzCorpus) {
  std::size_t parsed = 0;
  for (const std::string& text : testing::pebble_io_fuzz_texts()) {
    std::stringstream buffer{text};
    try {
      const Protocol protocol = read_protocol(buffer);
      ++parsed;
      expect_same_rebuild(protocol);
    } catch (const std::runtime_error&) {
    }
  }
  EXPECT_GT(parsed, 100u);
}

TEST(ProtocolAddStep, RandomMutationsOfEmittedProtocols) {
  std::size_t compared = 0;
  for (const testing::MutationSize& size : testing::kRandomMutationSizes) {
    const testing::Emitted e = testing::random_mutation_base(size);
    expect_same_rebuild(e.protocol);
    testing::for_each_random_mutant(e, size, [&](const Protocol& mutant) {
      ++compared;
      expect_same_rebuild(mutant);
    });
  }
  EXPECT_EQ(compared, 480u);
}

// ---- hand-made illegal steps -------------------------------------------------

/// 4 guests, 3 hosts, T = 2.  A legal first step, then `bad` as the middle
/// op of a step whose other ops are legal, so add() keeps one op and drops
/// the last.
std::string illegal_step(const Op& bad) {
  const Protocol shape{4, 3, 2};
  const Steps steps{
      {Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}, Op{OpKind::kGenerate, 1, PebbleType{1, 1}, 0}},
      {Op{OpKind::kSend, 0, PebbleType{0, 1}, 1}, bad, Op{OpKind::kReceive, 1, PebbleType{0, 1}, 0}},
  };
  return expect_same_build(shape, steps);
}

TEST(ProtocolAddStep, IllegalStepsThrowWhatAddThrows) {
  struct Case {
    const char* what;
    Op bad;
    const char* message;
  };
  const Case cases[] = {
      {"duplicate processor", Op{OpKind::kGenerate, 0, PebbleType{2, 1}, 0}, "already acted"},
      {"proc", Op{OpKind::kGenerate, 3, PebbleType{2, 1}, 0}, "host processor out of range"},
      {"partner", Op{OpKind::kSend, 2, PebbleType{2, 0}, 3}, "partner out of range"},
      {"pebble node", Op{OpKind::kGenerate, 2, PebbleType{4, 1}, 0}, "pebble type out of range"},
      {"pebble time", Op{OpKind::kGenerate, 2, PebbleType{2, 3}, 0}, "pebble type out of range"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string built = illegal_step(c.bad);
    EXPECT_NE(built.find(c.message), std::string::npos) << built;
    // The step's first op was kept, the op after the illegal one was not,
    // and processor 0 stays marked busy for the step.
    EXPECT_NE(built.find("\nhost_steps=2 num_ops=3\n"), std::string::npos) << built;
    EXPECT_NE(built.find("free: 1 2\n"), std::string::npos) << built;
  }
}

TEST(ProtocolAddStep, NoOpenStepThrowsWhatAddThrows) {
  const Protocol shape{4, 3, 2};
  const std::string built =
      expect_same_build(shape, {{Op{OpKind::kGenerate, 0, PebbleType{0, 1}, 0}}}, false);
  EXPECT_NE(built.find("begin_step() first"), std::string::npos) << built;
  // An empty step needs no open step, like zero add() calls.
  EXPECT_EQ(expect_same_build(shape, {{}}, false), build(shape, {}, true));
}

}  // namespace
}  // namespace upn
