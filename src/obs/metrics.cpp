#include "src/obs/metrics.hpp"

#include <algorithm>
#include <bit>

#include "src/util/contracts.hpp"

namespace upn::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// Stripe a thread writes to: assigned once per thread in registration
/// order.  Any fixed assignment works -- stripe sums commute.
std::size_t stripe_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1, std::memory_order_relaxed);
  return mine % kCounterStripes;
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

// ---- Counter --------------------------------------------------------------

void Counter::add(std::uint64_t delta) noexcept {
  stripes_[stripe_index()].value.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kCounterStripes; ++s) {
    total += stripes_[s].value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() noexcept {
  for (std::size_t s = 0; s < kCounterStripes; ++s) {
    stripes_[s].value.store(0, std::memory_order_relaxed);
  }
}

// ---- Gauge ----------------------------------------------------------------

void Gauge::set(std::int64_t v) noexcept {
  value_.store(v, std::memory_order_relaxed);
  record_max(v);
}

void Gauge::record_max(std::int64_t v) noexcept {
  std::int64_t current = max_.load(std::memory_order_relaxed);
  while (v > current &&
         !max_.compare_exchange_weak(current, v, std::memory_order_relaxed)) {
  }
}

std::int64_t Gauge::value() const noexcept {
  return value_.load(std::memory_order_relaxed);
}

std::int64_t Gauge::max_value() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

void Gauge::reset() noexcept {
  value_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---- Histogram ------------------------------------------------------------

std::size_t Histogram::bucket_of(std::uint64_t v) noexcept {
  return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
}

void Histogram::record(std::uint64_t v) noexcept {
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket(std::size_t b) const noexcept {
  return b < kHistogramBuckets ? buckets_[b].load(std::memory_order_relaxed) : 0;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---- Registry -------------------------------------------------------------

Registry& Registry::instance() noexcept {
  static Registry registry;
  return registry;
}

Registry::Entry& Registry::entry(std::string_view name, char type, MetricKind kind) {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    UPN_REQUIRE(it->second.type == type,
                "obs::Registry: metric '" + std::string{name} +
                    "' re-registered with a different type");
    UPN_REQUIRE(it->second.kind == kind,
                "obs::Registry: metric '" + std::string{name} +
                    "' re-registered with a different kind");
    return it->second;
  }
  Entry fresh;
  fresh.type = type;
  fresh.kind = kind;
  switch (type) {
    case 'c': fresh.counter = std::make_unique<Counter>(); break;
    case 'g': fresh.gauge = std::make_unique<Gauge>(); break;
    default: fresh.histogram = std::make_unique<Histogram>(); break;
  }
  return metrics_.emplace(std::string{name}, std::move(fresh)).first->second;
}

Counter& Registry::counter(std::string_view name, MetricKind kind) {
  return *entry(name, 'c', kind).counter;
}

Gauge& Registry::gauge(std::string_view name, MetricKind kind) {
  return *entry(name, 'g', kind).gauge;
}

Histogram& Registry::histogram(std::string_view name, MetricKind kind) {
  return *entry(name, 'h', kind).histogram;
}

std::vector<MetricRow> Registry::snapshot(std::optional<MetricKind> filter) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<MetricRow> rows;
  rows.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    if (filter.has_value() && entry.kind != *filter) continue;
    MetricRow row;
    row.name = name;
    row.kind = entry.kind;
    row.type = entry.type;
    switch (entry.type) {
      case 'c':
        row.count = entry.counter->value();
        break;
      case 'g':
        row.value = entry.gauge->value();
        row.max = entry.gauge->max_value();
        break;
      default:
        row.count = entry.histogram->count();
        row.sum = entry.histogram->sum();
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          const std::uint64_t in_bucket = entry.histogram->bucket(b);
          if (in_bucket != 0) {
            row.buckets.emplace_back(static_cast<std::uint32_t>(b), in_bucket);
          }
        }
        break;
    }
    rows.push_back(std::move(row));
  }
  return rows;  // std::map iteration is already name-sorted
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (auto& [name, entry] : metrics_) {
    switch (entry.type) {
      case 'c': entry.counter->reset(); break;
      case 'g': entry.gauge->reset(); break;
      default: entry.histogram->reset(); break;
    }
  }
}

std::size_t Registry::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return metrics_.size();
}

}  // namespace upn::obs
