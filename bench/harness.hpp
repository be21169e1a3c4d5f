// Shared benchmark harness: warmup + repetitions + machine-readable output.
//
// Every bench_* binary builds on this instead of hand-rolled timing: it
// parses the common flags, owns the thread pool for parallel sweeps, times
// named workloads, and writes one BENCH_<name>.json per run so the repo
// accumulates a perf trajectory future PRs can regress against.  The JSON
// schema is documented in docs/BENCHMARKS.md.
//
// Flags (all optional):
//   --threads=N   pool width for parallel sections, 1..4096 (default:
//                 UPN_THREADS or 1)
//   --reps=R      timed repetitions per measure() workload (default 5)
//   --warmup=W    untimed warmup runs per measure() workload (default 1)
//   --json=PATH   output path (default BENCH_<name>.json in the CWD)
//   --no-json     skip writing the JSON file
//
// The harness switches the obs registry on for the whole run and attributes
// metric deltas to each once()/measure() section, so the JSON (schema v3,
// see docs/BENCHMARKS.md) decomposes every timed number into the per-phase
// activity the paper reasons about -- routing steps vs replay steps vs
// pebble moves -- and into the wall time each span took.
//
// Timings vary run to run; everything else a bench prints or records is
// seeded and byte-stable, including across --threads values (the
// determinism contract of src/util/par and src/obs).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/util/par.hpp"

namespace upn::bench {

/// Prevents the optimizer from deleting a computed value; the moral
/// equivalent of google-benchmark's DoNotOptimize for harness workloads.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Wall times for one named workload (milliseconds, one entry per rep),
/// plus the metric activity the section generated, summed over warmup +
/// reps: `metrics` holds the deterministic rows (thread-count-independent),
/// `timing` the kTiming rows (span durations, pool busy time).
struct BenchResult {
  std::string name;
  std::vector<double> times_ms;
  std::vector<obs::MetricRow> metrics;
  std::vector<obs::MetricRow> timing;

  [[nodiscard]] double median_ms() const;
  [[nodiscard]] double p10_ms() const;
  [[nodiscard]] double p90_ms() const;
  [[nodiscard]] double mean_ms() const;
  [[nodiscard]] double min_ms() const;
  [[nodiscard]] double max_ms() const;
};

class Harness {
 public:
  /// Parses flags; prints a usage message and exits(2) on unknown or
  /// malformed arguments so CI catches typos.
  Harness(std::string name, int argc, const char* const* argv);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  [[nodiscard]] unsigned threads() const noexcept;
  [[nodiscard]] std::size_t reps() const noexcept { return reps_; }

  /// The pool parallel experiment sections share; sized by --threads.
  [[nodiscard]] ThreadPool& pool();

  /// Runs fn exactly once (it may print a table) and records the single
  /// wall time under `label`.
  void once(const std::string& label, const std::function<void()>& fn);

  /// Runs fn --warmup times untimed, then --reps times timed; fn should be
  /// a pure workload that prints nothing.
  void measure(const std::string& label, const std::function<void()>& fn);

  /// Writes BENCH_<name>.json (unless --no-json) and returns the process
  /// exit code for main().
  [[nodiscard]] int finish();

 private:
  std::string name_;
  std::string json_path_;
  bool write_json_ = true;
  std::size_t reps_ = 5;
  std::size_t warmup_ = 1;
  unsigned threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<BenchResult> results_;
};

}  // namespace upn::bench
