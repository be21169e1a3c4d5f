// Stress and soundness tests for the util/par thread pool: empty ranges,
// oversubscription (many more threads than cores, many more tasks than
// threads), exception propagation with deterministic (lowest-index) choice,
// pool reuse after failure, and the inline path used for nested calls.
// The whole file runs under the TSan job of the CI sanitizer matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/util/par.hpp"

namespace upn {
namespace {

TEST(ThreadPool, EmptyRangeRunsNothing) {
  ThreadPool pool{4};
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(pool.parallel_map<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  pool.parallel_for(64, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, OversubscribedPoolCoversEveryIndexExactlyOnce) {
  // Far more workers than this container has cores, far more tasks than
  // workers: every index must still run exactly once.
  ThreadPool pool{16};
  EXPECT_EQ(pool.size(), 16u);
  constexpr std::size_t kTasks = 10000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.parallel_for(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  ThreadPool pool{7};
  const std::vector<std::size_t> out =
      pool.parallel_map<std::size_t>(1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ExceptionFromTaskPropagates) {
  ThreadPool pool{4};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw std::runtime_error{"task 37 failed"};
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  // Multiple failing tasks: the rethrown exception is the lowest-index one,
  // so failure reports do not depend on thread scheduling.
  ThreadPool pool{4};
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i == 17 || i == 71) throw std::runtime_error{"task " + std::to_string(i)};
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 17");
  }
}

TEST(ThreadPool, RemainingTasksStillRunWhenOneThrows) {
  ThreadPool pool{4};
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  try {
    pool.parallel_for(kTasks, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 3) throw std::runtime_error{"boom"};
    });
  } catch (const std::runtime_error&) {
  }
  int total = 0;
  for (std::size_t i = 0; i < kTasks; ++i) total += hits[i].load();
  EXPECT_EQ(total, static_cast<int>(kTasks));
}

TEST(ThreadPool, PoolIsReusableAfterException) {
  ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for(10, [](std::size_t) { throw std::runtime_error{"first"}; }),
      std::runtime_error);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool{4};
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // A task that itself calls parallel_for must not deadlock waiting for
    // the workers it is occupying; nested calls degrade to inline serial.
    pool.parallel_for(10, [&](std::size_t j) { inner_total.fetch_add(j); });
  });
  EXPECT_EQ(inner_total.load(), 8u * 45u);
}

TEST(ThreadPool, ManyConsecutiveBatchesOnOnePool) {
  ThreadPool pool{5};
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> calls{0};
    pool.parallel_for(16, [&](std::size_t) { calls.fetch_add(1); });
    ASSERT_EQ(calls.load(), 16);
  }
}

TEST(ThreadPool, StatsCountCallsTasksAndLargestBatch) {
  ThreadPool pool{4};
  const ThreadPoolStats fresh = pool.stats();
  EXPECT_EQ(fresh.parallel_for_calls, 0u);
  EXPECT_EQ(fresh.tasks_run, 0u);
  EXPECT_EQ(fresh.max_batch, 0u);
  EXPECT_EQ(fresh.pending, 0u);

  pool.parallel_for(10, [](std::size_t) {});
  pool.parallel_for(3, [](std::size_t) {});
  pool.parallel_for(0, [](std::size_t) {});  // empty batch: early return, no call

  const ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_calls, 2u);
  EXPECT_EQ(stats.tasks_run, 13u);
  EXPECT_EQ(stats.max_batch, 10u);
  EXPECT_EQ(stats.pending, 0u) << "queue depth must return to 0 after every call";
}

TEST(ThreadPool, StatsAreIdenticalOnSerialAndPooledPaths) {
  // max_batch is the SUBMITTED batch size (not a scheduling artifact), so a
  // fixed call sequence yields the same stats at every pool width.
  ThreadPoolStats by_width[2];
  unsigned widths[2] = {1, 7};
  for (int w = 0; w < 2; ++w) {
    ThreadPool pool{widths[w]};
    pool.parallel_for(64, [](std::size_t) {});
    pool.parallel_for(5, [](std::size_t) {});
    by_width[w] = pool.stats();
  }
  EXPECT_EQ(by_width[0].parallel_for_calls, by_width[1].parallel_for_calls);
  EXPECT_EQ(by_width[0].tasks_run, by_width[1].tasks_run);
  EXPECT_EQ(by_width[0].max_batch, by_width[1].max_batch);
  EXPECT_EQ(by_width[0].pending, 0u);
  EXPECT_EQ(by_width[1].pending, 0u);
}

TEST(ThreadPool, StatsQueueDrainsToZeroEvenAfterException) {
  ThreadPool pool{4};
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t i) {
                     if (i == 2) throw std::runtime_error{"boom"};
                   }),
               std::runtime_error);
  EXPECT_EQ(pool.stats().pending, 0u);
  EXPECT_EQ(pool.stats().parallel_for_calls, 1u);
}

TEST(ThreadPool, DefaultThreadsReadsEnvironment) {
  ASSERT_EQ(setenv("UPN_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  ASSERT_EQ(setenv("UPN_THREADS", "garbage", 1), 0);
  EXPECT_EQ(ThreadPool::default_threads(), 1u);
  ASSERT_EQ(setenv("UPN_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadPool::default_threads(), 1u);
  ASSERT_EQ(unsetenv("UPN_THREADS"), 0);
  EXPECT_EQ(ThreadPool::default_threads(), 1u);
}

TEST(ThreadPool, ParseThreadsTakesTheWholeStringFrom1To4096) {
  EXPECT_EQ(ThreadPool::parse_threads("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_threads("7"), 7u);
  EXPECT_EQ(ThreadPool::parse_threads("4096"), 4096u);
  for (const char* bad : {"", "0", "-1", "4097", "5000000000", "2x", "x", "2 "}) {
    EXPECT_EQ(ThreadPool::parse_threads(bad), 0u) << "'" << bad << "'";
  }
  EXPECT_EQ(ThreadPool::parse_threads(nullptr), 0u);
}

}  // namespace
}  // namespace upn
