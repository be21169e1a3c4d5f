// Deterministic parallel execution: a small fixed-size thread pool.
//
// Every hot sweep in this laboratory -- (n, m) slowdown grids, batch
// protocol validation, the lower-bound census -- is embarrassingly parallel
// in exactly the sense the paper's simulation model exploits: independent
// guest steps and independent grid points.  ThreadPool runs such index
// spaces across a fixed set of worker threads while preserving the
// repository's determinism contract:
//
//  * results are collected BY INDEX (parallel_map writes slot i from task
//    i), so the reduced output is byte-identical to the serial path no
//    matter how many threads run or how the scheduler interleaves them;
//  * randomized tasks must NOT share an Rng (xoshiro state is mutable and
//    unsynchronized); drivers derive one independent sub-stream per task
//    with Rng::stream(seed, task_index) instead.
//
// A pool of size <= 1 executes inline on the caller with no threads and no
// locks -- that path IS the serial reference the differential tests compare
// against.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace upn {

/// Lifetime introspection for a pool (satellite of the obs layer).  All
/// fields are recorded identically on the serial and pooled paths, so they
/// are thread-count-independent for a fixed call sequence.
struct ThreadPoolStats {
  std::uint64_t parallel_for_calls = 0;  ///< completed parallel_for invocations
  std::uint64_t tasks_run = 0;           ///< total task bodies executed
  std::uint64_t max_batch = 0;           ///< largest submitted batch (max queue depth)
  std::uint64_t pending = 0;             ///< tasks submitted but not yet joined
};

class ThreadPool {
 public:
  /// A pool that runs work on `num_threads` threads in total (the caller
  /// participates, so num_threads == 2 spawns one worker).  0 picks
  /// default_threads().  Pools of size <= 1 never spawn and run inline.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width, including the calling thread.  Always >= 1.
  [[nodiscard]] unsigned size() const noexcept { return threads_; }

  /// Runs body(0), ..., body(count - 1), blocking until all complete.
  /// Tasks run concurrently in unspecified order; the calling thread
  /// participates.  If any task throws, the exception thrown by the
  /// LOWEST-index failing task is rethrown after every task has finished
  /// (deterministic regardless of scheduling).  Reentrant calls from inside
  /// a task run inline on that task's thread.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// parallel_for that collects fn(i) into slot i of the result -- ordered,
  /// deterministic reduction.  T must be default-constructible.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> parallel_map(std::size_t count, Fn&& fn) {
    std::vector<T> out(count);
    parallel_for(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Snapshot of this pool's lifetime statistics.  `pending` is 0 whenever
  /// no parallel_for is in flight -- tests/par_test.cpp asserts the queue
  /// drains back to zero after every call.
  [[nodiscard]] ThreadPoolStats stats() const noexcept;

  /// Pool width used when a size is not given explicitly: the UPN_THREADS
  /// environment variable when parse_threads accepts it, else 1 (serial).
  [[nodiscard]] static unsigned default_threads() noexcept;

  /// The one thread-count parser (UPN_THREADS, `--jobs`, `--threads=`): the
  /// whole string must be a decimal integer in [1, 4096].  Returns 0 when it
  /// is not, including for null or empty input.
  [[nodiscard]] static unsigned parse_threads(const char* text) noexcept;

 private:
  // One parallel_for invocation.  Heap-allocated and shared with workers so
  // a late-waking worker from a finished job can never touch a newer job's
  // counters or a destroyed stack frame.
  struct Job {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors;  // slot per task, mostly null
    std::mutex mutex;
    std::condition_variable finished_cv;
    std::size_t done = 0;  // guarded by mutex
  };

  void worker_loop();
  static void run_tasks(Job& job);

  unsigned threads_ = 1;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::atomic<std::uint64_t> pending_{0};
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::shared_ptr<Job> job_;          // guarded by mutex_
  std::uint64_t generation_ = 0;      // guarded by mutex_
  bool stop_ = false;                 // guarded by mutex_
};

}  // namespace upn
