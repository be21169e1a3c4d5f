// bench_compare: the benchmark regression gate for the data-oriented router
// engine (docs/ROUTER_ENGINE.md).
//
//   bench_compare --baseline OLD.json --current NEW.json
//                 [--min-speedup X] [--section PREFIX]...
//
// Both files are harness-emitted BENCH_*.json artifacts (bench/harness.cpp
// writes one result object per line with "name" and "median_ms" on the same
// line; this reader depends on exactly that emitter).  For every gated
// section -- those whose name starts with any --section prefix, or all
// sections when none is given -- the tool computes
//
//     speedup = baseline_median_ms / current_median_ms
//
// and exits 1 if any gated section falls below --min-speedup (default 2.0),
// or if a gated baseline section is missing from the current run.  A
// --min-speedup that is not a finite number > 0 would disable the gate, so
// it exits 2 like any other usage error.  CI runs
// this after bench-smoke with the committed pre-rewrite artifact in
// bench/baselines/ as OLD, so the engine rewrite's speedup is a ratchet: a
// change that gives back more than half the win fails the build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace upn::tools {
namespace {

struct Section {
  std::string name;
  double median_ms = 0.0;
};

// Extract the value of a `"key": "string"` pair from a result line.
bool find_string_field(const std::string& line, const std::string& key,
                       std::string& out) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  out = line.substr(begin, end - begin);
  return true;
}

// Extract the value of a `"key": number` pair from a result line.
bool find_number_field(const std::string& line, const std::string& key,
                       double& out) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  try {
    out = std::stod(line.substr(at + needle.size()));
  } catch (...) {
    return false;
  }
  return true;
}

// Parse every result section from a harness BENCH_*.json artifact.  The
// harness emits each result object on a single line carrying both "name"
// and "median_ms"; metric lines carry "name" but never "median_ms", so the
// pair of probes below selects exactly the result lines.
std::vector<Section> read_sections(const std::string& path, std::string& error) {
  std::vector<Section> sections;
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return sections;
  }
  std::string line;
  while (std::getline(in, line)) {
    Section section;
    if (!find_string_field(line, "name", section.name)) continue;
    if (!find_number_field(line, "median_ms", section.median_ms)) continue;
    if (section.median_ms <= 0.0) {
      error = path + ": section '" + section.name + "' has non-positive median";
      return sections;
    }
    sections.push_back(std::move(section));
  }
  if (sections.empty()) error = path + ": no result sections found";
  return sections;
}

const Section* find(const std::vector<Section>& sections, const std::string& name) {
  for (const Section& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool gated(const std::string& name, const std::vector<std::string>& prefixes) {
  if (prefixes.empty()) return true;
  for (const std::string& prefix : prefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

int usage(int code) {
  std::cerr << "usage: bench_compare --baseline OLD.json --current NEW.json\n"
               "                     [--min-speedup X] [--section PREFIX]...\n";
  return code;
}

int run(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double min_speedup = 2.0;
  std::vector<std::string> prefixes;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--baseline") {
      const char* v = value();
      if (v == nullptr) return usage(2);
      baseline_path = v;
    } else if (arg == "--current") {
      const char* v = value();
      if (v == nullptr) return usage(2);
      current_path = v;
    } else if (arg == "--min-speedup") {
      const char* v = value();
      if (v == nullptr) return usage(2);
      // A floor that is not a finite positive number would pass every run.
      char* end = nullptr;
      min_speedup = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(min_speedup) || !(min_speedup > 0.0)) {
        std::cerr << "bench_compare: --min-speedup must be a finite number > 0, got '" << v
                  << "'\n";
        return usage(2);
      }
    } else if (arg == "--section") {
      const char* v = value();
      if (v == nullptr) return usage(2);
      prefixes.emplace_back(v);
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::cerr << "bench_compare: unknown argument " << arg << "\n";
      return usage(2);
    }
  }
  if (baseline_path.empty() || current_path.empty()) return usage(2);

  std::string error;
  const std::vector<Section> baseline = read_sections(baseline_path, error);
  if (!error.empty()) {
    std::cerr << "bench_compare: " << error << "\n";
    return 2;
  }
  const std::vector<Section> current = read_sections(current_path, error);
  if (!error.empty()) {
    std::cerr << "bench_compare: " << error << "\n";
    return 2;
  }

  int failures = 0;
  int compared = 0;
  std::printf("%-36s %12s %12s %9s\n", "section", "baseline_ms", "current_ms",
              "speedup");
  for (const Section& old : baseline) {
    if (!gated(old.name, prefixes)) continue;
    const Section* now = find(current, old.name);
    if (now == nullptr) {
      std::printf("%-36s %12.5f %12s %9s  MISSING\n", old.name.c_str(),
                  old.median_ms, "-", "-");
      ++failures;
      continue;
    }
    ++compared;
    const double speedup = old.median_ms / now->median_ms;
    const bool ok = speedup >= min_speedup;
    std::printf("%-36s %12.5f %12.5f %8.2fx%s\n", old.name.c_str(), old.median_ms,
                now->median_ms, speedup, ok ? "" : "  REGRESSION");
    if (!ok) ++failures;
  }
  if (compared == 0 && failures == 0) {
    std::cerr << "bench_compare: no gated sections matched; check --section prefixes\n";
    return 2;
  }
  if (failures > 0) {
    std::cerr << "bench_compare: " << failures << " section(s) below " << min_speedup
              << "x vs " << baseline_path << "\n";
    return 1;
  }
  std::cout << "bench_compare: " << compared << " section(s) at or above "
            << min_speedup << "x\n";
  return 0;
}

}  // namespace
}  // namespace upn::tools

int main(int argc, char** argv) { return upn::tools::run(argc, argv); }
