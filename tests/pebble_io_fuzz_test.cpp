// Hostile-input hardening of read_protocol: a malformed corpus that must be
// rejected with a line-numbered error, one-op-rule breaches that parse and
// fail validation, plus the truncations and seeded random mutations of a
// valid protocol (testing::pebble_io_fuzz_texts) that must either parse or
// throw -- never crash, hang, or allocate unboundedly.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "src/pebble/io.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/builders.hpp"
#include "tests/support/protocol_corpus.hpp"

namespace upn {
namespace {

void expect_rejected(const std::string& text) {
  std::stringstream buffer{text};
  try {
    (void)read_protocol(buffer);
    FAIL() << "accepted malformed input:\n" << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line "), std::string::npos)
        << "error lacks a line number: " << e.what();
  }
}

TEST(PebbleIoFuzz, MalformedCorpusIsRejectedWithLineNumbers) {
  const std::string corpus[] = {
      "",                                              // empty input
      "\n",                                            // blank header
      "upn-protocol\n",                                // truncated header
      "upn-protocol 1 3 4\n",                          // missing T
      "upn-protocol 1 3 4 2 9\n",                      // extra header field
      "upn-protocol 2 3 4 2\n",                        // unknown version
      "mystery 1 3 4 2\n",                             // wrong magic
      "upn-protocol 1 -3 4 2\n",                       // negative guest count
      "upn-protocol 1 3 4 -1\n",                       // negative step count
      "upn-protocol 1 3 4 2x\n",                       // trailing junk in number
      "upn-protocol 1 3 4294967296 2\n",               // overflows uint32_t
      "upn-protocol 1 3 99999999999999999999 2\n",     // overflows harder
      "upn-protocol 1 3 67108865 2\n",                 // above dimension cap
      "upn-protocol 1 3 4 2\nG 0 0 1\n",               // op before first step
      "upn-protocol 1 3 4 2\nstep extra\n",            // garbage after step
      "upn-protocol 1 3 4 2\nstep\nG 0 0\n",           // generate missing fields
      "upn-protocol 1 3 4 2\nstep\nS 0 0 0\n",         // send missing partner
      "upn-protocol 1 3 4 2\nstep\nR 0 0 0\n",         // receive missing partner
      "upn-protocol 1 3 4 2\nstep\nG 0 0 1 7\n",       // generate with partner
      "upn-protocol 1 3 4 2\nstep\nS 0 0 0 1 9\n",     // send with extra field
      "upn-protocol 1 3 4 2\nstep\nQ 0 0 1\n",         // unknown op kind
      "upn-protocol 1 3 4 2\nstep\nGG 0 0 1\n",        // overlong op kind
      "upn-protocol 1 3 4 2\nstep\nG -1 0 1\n",        // negative processor
      "upn-protocol 1 3 4 2\nstep\nG 0 0 1.5\n",       // fractional time
      "upn-protocol 1 3 4 2\nstep\nS 0 0 0 4\n",       // partner out of range
      "upn-protocol 1 3 4 2\nstep\nG 9 0 1\n",         // processor out of range
      "upn-protocol 1 3 4 2\nstep\nG 0 7 1\n",         // pebble node out of range
      "upn-protocol 1 3 4 2\nstep\nG 0 0 3\n",         // pebble time out of range
  };
  for (const std::string& text : corpus) expect_rejected(text);
}

TEST(PebbleIoFuzz, OneOpRuleBreachesParseAndFailValidation) {
  // The one-op-per-processor rule is the validator's: read_protocol stores
  // such a step, and validate_protocol names the second op.
  const std::pair<std::string, std::string> cases[] = {
      {"upn-protocol 1 3 4 2\nstep\nG 0 0 1\nG 0 1 1\n",  // proc acts twice
       "step 0: generate(P1,1) at proc 0"},
      {"upn-protocol 1 3 4 2\nstep\nS 1 2 0 2\nS 1 2 0 2\n",  // duplicate send
       "step 0: send(P2,0) at proc 1"},
  };
  for (const auto& [text, op] : cases) {
    std::stringstream buffer{text};
    const Protocol protocol = read_protocol(buffer);
    const ValidationResult result = validate_protocol(protocol, make_cycle(3), make_path(4));
    EXPECT_FALSE(result.ok) << text;
    EXPECT_EQ(result.error.rfind(op + ": processor already acted this step", 0), 0u)
        << result.error;
  }
}

TEST(PebbleIoFuzz, OverlongTokenAndLineAreRejected) {
  expect_rejected("upn-protocol 1 3 4 " + std::string(64, '2') + "\n");
  expect_rejected("upn-protocol 1 3 4 2\nstep\nG 0 0 " + std::string(5000, '1') + "\n");
}

TEST(PebbleIoFuzz, HugeHeaderDoesNotAllocate) {
  // 4294967295 hosts would be a 16 GiB per-host table in any reader that
  // trusted the header.
  expect_rejected("upn-protocol 1 4294967295 4294967295 4294967295\n");
}

TEST(PebbleIoFuzz, TruncationsAndRandomMutationsNeverCrash) {
  for (const std::string& text : testing::pebble_io_fuzz_texts()) {
    std::stringstream buffer{text};
    try {
      (void)read_protocol(buffer);
    } catch (const std::runtime_error&) {
      // Rejection is fine (and expected for most mutations); crashing is not.
    }
  }
}

}  // namespace
}  // namespace upn
