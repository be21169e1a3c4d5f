// Process-wide metrics registry: counters, gauges, and histograms with a
// deterministic fixed-bucket layout.
//
// The paper's proofs reason about per-phase activity -- embedding congestion,
// h-h routing queues, pebble replay, census fan-out -- and this module turns
// those quantities into first-class metrics the simulators, the router, the
// validator, and the bench harness all report through one registry.
//
// Determinism contract (mirrors src/util/par): every metric mutation is a
// commutative update (integer add, integer max, bucket add), so the merged
// value is independent of thread interleaving and of the thread count, and a
// snapshot -- which reads metrics sorted by name and sums counter stripes in
// index order -- is byte-identical between serial and parallel runs of the
// same seeded workload.  tests/obs_differential_test.cpp enforces this at
// UPN_THREADS in {1, 2, 7}.
//
// Metrics carry a MetricKind: kDeterministic values obey the contract above;
// kTiming values (wall-clock sums like worker busy time) are excluded from
// deterministic snapshots and never compared byte-for-byte.
//
// Collection is gated by the process-wide enabled() flag (off at start;
// the bench harness, upnbench and the tests switch it on with set_enabled);
// disabled call sites cost one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace upn::obs {

/// Whether metric collection is on.  Starts off; only set_enabled() turns
/// it on.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

enum class MetricKind : std::uint8_t {
  kDeterministic,  ///< thread-count-independent; byte-compared by tests
  kTiming,         ///< wall-clock derived; excluded from deterministic snapshots
};

/// Stripes per counter: writers spread over stripes to dodge cache-line
/// contention; value() merges the stripes in index order.
inline constexpr std::size_t kCounterStripes = 16;

/// Monotone event counter.  add() is wait-free (one relaxed fetch_add on
/// the calling thread's stripe); the merged value is a plain sum, hence
/// deterministic for deterministic workloads.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  Stripe stripes_[kCounterStripes];
};

/// Last-value + running-max gauge.  record_max is the deterministic update
/// (max commutes); set() is a convenience for values that are themselves
/// deterministic at snapshot time (e.g. "pending tasks", always 0 at rest).
class Gauge {
 public:
  void set(std::int64_t v) noexcept;
  void record_max(std::int64_t v) noexcept;
  [[nodiscard]] std::int64_t value() const noexcept;
  [[nodiscard]] std::int64_t max_value() const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Bucket count of the fixed histogram layout: bucket 0 holds the value 0,
/// bucket b >= 1 holds [2^(b-1), 2^b).  The layout is a compile-time
/// constant so histograms from different runs, hosts, and thread counts are
/// always mergeable and comparable.
inline constexpr std::size_t kHistogramBuckets = 65;

class Histogram {
 public:
  void record(std::uint64_t v) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t sum() const noexcept;
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const noexcept;
  void reset() noexcept;

  /// Bucket index of a value under the fixed power-of-two layout.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kHistogramBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// One metric, read out for export.  Which fields are meaningful depends on
/// `type`: 'c' -> count; 'g' -> value, max; 'h' -> count, sum, buckets.
struct MetricRow {
  std::string name;
  MetricKind kind = MetricKind::kDeterministic;
  char type = 'c';
  std::uint64_t count = 0;
  std::int64_t value = 0;
  std::int64_t max = 0;
  std::uint64_t sum = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;  ///< nonzero only
};

/// Name -> metric map.  Names follow `layer.subsystem.name` (see
/// docs/OBSERVABILITY.md for the catalog); re-registering a name returns
/// the existing metric and must agree on type and kind.
class Registry {
 public:
  [[nodiscard]] static Registry& instance() noexcept;

  Counter& counter(std::string_view name, MetricKind kind = MetricKind::kDeterministic);
  Gauge& gauge(std::string_view name, MetricKind kind = MetricKind::kDeterministic);
  Histogram& histogram(std::string_view name, MetricKind kind = MetricKind::kDeterministic);

  /// Reads every registered metric (optionally only one kind), sorted by
  /// name.  Counter stripes are merged in index order.  Callers that need
  /// determinism must quiesce concurrent writers first (tests snapshot
  /// after their pools have drained).
  [[nodiscard]] std::vector<MetricRow> snapshot(
      std::optional<MetricKind> filter = std::nullopt) const;

  /// Zeroes every registered metric.  Registrations (and references handed
  /// out) stay valid; tests use this for per-scenario isolation.
  void reset();

  /// Number of registered metrics.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    char type = 'c';
    MetricKind kind = MetricKind::kDeterministic;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, char type, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

/// Shorthand for Registry::instance().
[[nodiscard]] inline Registry& registry() noexcept { return Registry::instance(); }

}  // namespace upn::obs
