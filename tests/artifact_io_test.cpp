// Round-trip and hostile-input tests for the two new artifact formats:
// embeddings (.upne) and path schedules (.upns).  Both mirror pebble/io's
// philosophy -- parsers enforce structural well-formedness and throw
// std::runtime_error with a line number; declared BOUNDS are deliberately
// not verified here (that is upn_analyze's artifact pass, tested in
// analyze_test.cpp).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "src/core/embedding.hpp"
#include "src/core/embedding_io.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/path_schedule.hpp"
#include "src/routing/schedule_io.hpp"
#include "src/topology/builders.hpp"

namespace upn {
namespace {

void expect_read_embedding_fails(const std::string& text, const std::string& needle) {
  std::istringstream is{text};
  try {
    (void)read_embedding(is);
    FAIL() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos) << e.what();
  }
}

TEST(EmbeddingIo, RoundTripPreservesEverything) {
  const auto embedding = make_block_embedding(10, 4);
  std::ostringstream os;
  write_embedding(os, embedding, 4);
  std::istringstream is{os.str()};
  const StoredEmbedding stored = read_embedding(is);
  EXPECT_EQ(stored.map, embedding);
  EXPECT_EQ(stored.num_hosts, 4u);
  EXPECT_EQ(stored.declared_load, embedding_load(embedding, 4));
}

TEST(EmbeddingIo, EmptyEmbeddingRoundTrips) {
  std::ostringstream os;
  write_embedding(os, {}, 0);
  std::istringstream is{os.str()};
  const StoredEmbedding stored = read_embedding(is);
  EXPECT_TRUE(stored.map.empty());
  EXPECT_EQ(stored.num_hosts, 0u);
}

TEST(EmbeddingIo, MalformedInputsThrowWithLineNumbers) {
  expect_read_embedding_fails("", "line 1");
  expect_read_embedding_fails("upn-embedding 2 1 1 1\n0\n", "bad header");
  expect_read_embedding_fails("wrong-magic 1 1 1 1\n0\n", "bad header");
  expect_read_embedding_fails("upn-embedding 1 2 2 1\n0\nx\n", "line 3");
  expect_read_embedding_fails("upn-embedding 1 2 2 1\n0\n5\n", "out of range");
  expect_read_embedding_fails("upn-embedding 1 3 2 2\n0\n1\n", "fewer rows");
  expect_read_embedding_fails("upn-embedding 1 1 2 1\n0\n1\n", "more rows");
  expect_read_embedding_fails("upn-embedding 1 2 0 1\n0\n1\n", "n > 0 requires m > 0");
  expect_read_embedding_fails("upn-embedding 1 99999999999 1 1\n", "guest count");
}

void expect_read_schedule_fails(const std::string& text, const std::string& needle) {
  std::istringstream is{text};
  try {
    (void)read_path_schedule(is);
    FAIL() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos) << e.what();
  }
}

TEST(ScheduleIo, RoundTripPreservesMovesAndBounds) {
  const Graph host = make_cycle(8);
  HhProblem problem{8};
  for (NodeId v = 0; v < 8; ++v) problem.add(v, (v + 3) % 8);
  const PathSchedule schedule = schedule_paths(host, problem);

  std::ostringstream os;
  write_path_schedule(os, schedule, 8);
  std::istringstream is{os.str()};
  const StoredPathSchedule stored = read_path_schedule(is);
  EXPECT_EQ(stored.num_packets, 8u);
  EXPECT_EQ(stored.schedule.congestion, schedule.congestion);
  EXPECT_EQ(stored.schedule.dilation, schedule.dilation);
  EXPECT_EQ(stored.schedule.makespan, schedule.makespan);
  EXPECT_EQ(stored.schedule.total_moves, schedule.total_moves);
  EXPECT_EQ(stored.schedule.moves, schedule.moves);
}

TEST(ScheduleIo, MalformedInputsThrowWithLineNumbers) {
  expect_read_schedule_fails("", "line 1");
  expect_read_schedule_fails("upn-schedule 2 1 1 1 1\n", "bad header");
  expect_read_schedule_fails("upn-schedule 1 1 1 1 1\nM 0 0 1\n", "before first 'step'");
  expect_read_schedule_fails("upn-schedule 1 1 1 1 1\nstep\nM 0 0 0\n",
                             "from != to");
  expect_read_schedule_fails("upn-schedule 1 1 1 1 1\nstep\nM 5 0 1\n", "out of range");
  expect_read_schedule_fails("upn-schedule 1 1 1 1 2\nstep\nM 0 0 1\n",
                             "declared makespan");
  expect_read_schedule_fails("upn-schedule 1 1 1 1 1\nstep\nQ 0 0 1\n", "unknown record");
  expect_read_schedule_fails("upn-schedule 1 1 1 1 1\nstep extra\n", "trailing garbage");
}

}  // namespace
}  // namespace upn
