#include "bench/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/obs/obs.hpp"
#include "src/util/cli.hpp"

namespace upn::bench {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// Quantile of a sample set with linear interpolation between order
/// statistics (deterministic; q in [0, 1]).
double quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, sorted.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return sorted[lower] + fraction * (sorted[upper] - sorted[lower]);
}

void append_json_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_number(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

/// Splits the registry's movement since `before` into the section's
/// deterministic rows and its kTiming rows.
void attribute(BenchResult& result, const std::vector<obs::MetricRow>& before) {
  for (obs::MetricRow& row : obs::delta_rows(before, obs::registry().snapshot())) {
    (row.kind == obs::MetricKind::kTiming ? result.timing : result.metrics)
        .push_back(std::move(row));
  }
}

}  // namespace

double BenchResult::median_ms() const { return quantile(times_ms, 0.5); }
double BenchResult::p10_ms() const { return quantile(times_ms, 0.1); }
double BenchResult::p90_ms() const { return quantile(times_ms, 0.9); }
double BenchResult::min_ms() const { return quantile(times_ms, 0.0); }
double BenchResult::max_ms() const { return quantile(times_ms, 1.0); }

double BenchResult::mean_ms() const {
  if (times_ms.empty()) return 0.0;
  double sum = 0;
  for (const double t : times_ms) sum += t;
  return sum / static_cast<double>(times_ms.size());
}

Harness::Harness(std::string name, int argc, const char* const* argv)
    : name_(std::move(name)), json_path_("BENCH_" + name_ + ".json") {
  const auto usage_exit = [&](const std::string& problem) {
    std::cerr << "bench_" << name_ << ": " << problem << "\nusage: bench_" << name_
              << " [--threads=N] [--reps=R] [--warmup=W] [--json=PATH] [--no-json]\n";
    std::exit(2);
  };
  try {
    const Cli cli{argc, argv};
    threads_ = cli.has("threads") ? ThreadPool::parse_threads(cli.get("threads", "").c_str())
                                  : ThreadPool::default_threads();
    if (threads_ == 0) usage_exit("--threads must be an integer from 1 to 4096");
    reps_ = static_cast<std::size_t>(cli.get_u64("reps", 5));
    if (reps_ == 0) usage_exit("--reps must be at least 1");
    warmup_ = static_cast<std::size_t>(cli.get_u64("warmup", 1));
    json_path_ = cli.get("json", json_path_);
    write_json_ = !cli.has("no-json");
    const std::vector<std::string> unused = cli.unused();
    if (!unused.empty()) usage_exit("unknown flag --" + unused.front());
  } catch (const std::exception& error) {
    std::cerr << "bench_" << name_ << ": " << error.what() << "\n";
    std::exit(2);
  }
  // Benches always collect metrics: the snapshot is part of the BENCH json
  // (schema v3) and per-phase deltas are what EXPERIMENTS.md decomposes.
  obs::set_enabled(true);
}

Harness::~Harness() = default;

unsigned Harness::threads() const noexcept { return threads_; }

ThreadPool& Harness::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  return *pool_;
}

void Harness::once(const std::string& label, const std::function<void()>& fn) {
  BenchResult result;
  result.name = label;
  const std::vector<obs::MetricRow> before = obs::registry().snapshot();
  const auto start = Clock::now();
  fn();
  result.times_ms.push_back(elapsed_ms(start, Clock::now()));
  attribute(result, before);
  results_.push_back(std::move(result));
}

void Harness::measure(const std::string& label, const std::function<void()>& fn) {
  BenchResult result;
  result.name = label;
  const std::vector<obs::MetricRow> before = obs::registry().snapshot();
  for (std::size_t w = 0; w < warmup_; ++w) fn();
  for (std::size_t r = 0; r < reps_; ++r) {
    const auto start = Clock::now();
    fn();
    result.times_ms.push_back(elapsed_ms(start, Clock::now()));
  }
  // Attributed activity covers warmup + reps; the deterministic rows are
  // fixed by --reps/--warmup regardless of --threads.
  attribute(result, before);
  results_.push_back(std::move(result));
}

int Harness::finish() {
  std::cout << "--- bench_" << name_ << ": " << results_.size()
            << " measured sections, threads = " << threads_ << ", reps = " << reps_
            << " ---\n";
  for (const BenchResult& result : results_) {
    std::cout << "  " << result.name << ": median " << result.median_ms()
              << " ms (p10 " << result.p10_ms() << ", p90 " << result.p90_ms()
              << ", reps " << result.times_ms.size() << ")\n";
  }
  if (!write_json_) return 0;

  std::string json;
  json += "{\n";
  json += "  \"schema_version\": 3,\n";
  json += "  \"benchmark\": \"";
  append_json_escaped(json, name_);
  json += "\",\n";
  json += "  \"threads\": " + std::to_string(threads_) + ",\n";
  json += "  \"warmup\": " + std::to_string(warmup_) + ",\n";
  json += "  \"repetitions\": " + std::to_string(reps_) + ",\n";
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const BenchResult& result = results_[i];
    json += "    {\"name\": \"";
    append_json_escaped(json, result.name);
    json += "\", \"reps\": " + std::to_string(result.times_ms.size());
    json += ", \"median_ms\": " + json_number(result.median_ms());
    json += ", \"p10_ms\": " + json_number(result.p10_ms());
    json += ", \"p90_ms\": " + json_number(result.p90_ms());
    json += ", \"mean_ms\": " + json_number(result.mean_ms());
    json += ", \"min_ms\": " + json_number(result.min_ms());
    json += ", \"max_ms\": " + json_number(result.max_ms());
    json += ",\n     \"metrics\": " + obs::snapshot_json(result.metrics, 5);
    json += ",\n     \"timing\": " + obs::snapshot_json(result.timing, 5);
    json += i + 1 < results_.size() ? "},\n" : "}\n";
  }
  json += "  ],\n";
  // Full end-of-run deterministic registry state: byte-identical across
  // --threads values for a fixed flag set.
  json += "  \"metrics_snapshot\": " +
          obs::snapshot_json(obs::registry().snapshot(obs::MetricKind::kDeterministic), 2);
  json += "\n}\n";

  std::ofstream file{json_path_};
  if (!file) {
    std::cerr << "bench_" << name_ << ": cannot write " << json_path_ << "\n";
    return 1;
  }
  file << json;
  std::cout << "wrote " << json_path_ << "\n";
  return 0;
}

}  // namespace upn::bench
