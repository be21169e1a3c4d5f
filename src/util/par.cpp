#include "src/util/par.hpp"

#include <cstdlib>
#include <string>

#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"

namespace upn {

namespace {

// Reentrant parallel_for calls (a task spawning nested parallel work on the
// same pool) run inline: the flag marks threads currently executing tasks.
thread_local bool g_inside_pool_task = false;

}  // namespace

unsigned ThreadPool::parse_threads(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (*end != '\0' || parsed < 1 || parsed > 4096) return 0;
  return static_cast<unsigned>(parsed);
}

unsigned ThreadPool::default_threads() noexcept {
  const unsigned parsed = parse_threads(std::getenv("UPN_THREADS"));
  return parsed == 0 ? 1 : parsed;
}

ThreadPool::ThreadPool(unsigned num_threads)
    : threads_(num_threads == 0 ? default_threads() : num_threads) {
  if (threads_ < 1) threads_ = 1;
  workers_.reserve(threads_ - 1);
  for (unsigned t = 0; t + 1 < threads_; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run_tasks(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) break;
    g_inside_pool_task = true;
    const std::uint64_t busy_start = obs::enabled() ? obs::now_ns() : 0;
    try {
      (*job.body)(i);
    } catch (...) {
      job.errors[i] = std::current_exception();
    }
    if (busy_start != 0) {
      // Wall-clock worker busy time: a kTiming metric, excluded from
      // deterministic snapshots.
      UPN_OBS_TIMING_ADD("util.par.busy_ns", obs::now_ns() - busy_start);
    }
    g_inside_pool_task = false;
    const std::lock_guard<std::mutex> lock{job.mutex};
    if (++job.done == job.count) job.finished_cv.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
    }
    if (job) run_tasks(*job);
  }
}

ThreadPoolStats ThreadPool::stats() const noexcept {
  ThreadPoolStats out;
  out.parallel_for_calls = calls_.load(std::memory_order_relaxed);
  out.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  out.max_batch = max_batch_.load(std::memory_order_relaxed);
  out.pending = pending_.load(std::memory_order_relaxed);
  return out;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;

  // Stats are recorded identically on the serial and pooled paths (the max
  // batch is the SUBMITTED size, not an observed occupancy), so snapshots
  // stay thread-count-independent.
  pending_.fetch_add(count, std::memory_order_relaxed);
  {
    std::uint64_t seen = max_batch_.load(std::memory_order_relaxed);
    while (count > seen &&
           !max_batch_.compare_exchange_weak(seen, count, std::memory_order_relaxed)) {
    }
  }
  UPN_OBS_COUNT("util.par.parallel_for_calls", 1);
  UPN_OBS_COUNT("util.par.tasks_run", count);
  UPN_OBS_GAUGE_MAX("util.par.max_batch", count);
  UPN_OBS_HIST("util.par.batch_size", count);

  struct StatsGuard {
    ThreadPool* pool;
    std::size_t count;
    ~StatsGuard() {
      pool->tasks_run_.fetch_add(count, std::memory_order_relaxed);
      pool->calls_.fetch_add(1, std::memory_order_relaxed);
      pool->pending_.fetch_sub(count, std::memory_order_relaxed);
    }
  } stats_guard{this, count};

  if (threads_ <= 1 || count == 1 || g_inside_pool_task) {
    // Serial reference path: inline, in index order, exceptions propagate
    // directly.  Byte-identical results are the contract, see header.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = &body;
  job->count = count;
  job->errors.resize(count);
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    UPN_REQUIRE(!stop_, "parallel_for on a destroyed pool");
    job_ = job;
    ++generation_;
  }
  work_cv_.notify_all();

  run_tasks(*job);  // the caller is worker number `threads_`

  {
    std::unique_lock<std::mutex> lock{job->mutex};
    job->finished_cv.wait(lock, [&] { return job->done == job->count; });
  }
  {
    // Unpublish so idle workers never retain the job (and its stack-bound
    // body pointer) past this call.
    const std::lock_guard<std::mutex> lock{mutex_};
    if (job_ == job) job_.reset();
  }
  for (const std::exception_ptr& error : job->errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace upn
