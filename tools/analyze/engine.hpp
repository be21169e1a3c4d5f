// The upn_analyze engine: collects sources and artifacts, builds the IR per
// C++ file on the util/par ThreadPool, runs every pass, filters the result
// through the one baseline, and merges findings in deterministic
// (file, line, rule, message) order -- the report is byte-identical at every
// --jobs value (tests pin {1, 2, 7}).
//
// The engine reports through the obs registry (`analyze.*` counters: runs,
// files, findings, findings_baselined, callgraph.*) when UPN_OBS collection
// is on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tools/analyze/passes.hpp"

namespace upn::analyze {

/// Where the baseline lives, relative to the repo root.
inline constexpr const char* kBaselinePath = "tools/analyze/analyze.baseline";

/// Everything one analysis run consumes, fully in memory so tests can drive
/// the engine without touching disk.
struct Input {
  /// Repo-relative paths, forward slashes.  Files with an artifact extension
  /// (is_artifact_path) get the artifact pass; the rest are C++.
  std::vector<SourceFile> files;
  std::string layers_path;        ///< "" skips the layering + hotpath passes
  std::string layers_text;
  std::string baseline_text;      ///< the baseline; "" means empty
  std::string baseline_path = kBaselinePath;  ///< reported on stale entries
  bool want_callgraph = false;    ///< fill Report::callgraph_dump
  unsigned jobs = 0;              ///< 0 picks ThreadPool::default_threads()
};

struct Report {
  std::vector<Finding> findings;   ///< actionable, sorted
  std::vector<Finding> baselined;  ///< matched the baseline, sorted
  std::size_t files = 0;
  /// The `--dump-callgraph` text (tools/analyze/callgraph.hpp); filled only
  /// when Input::want_callgraph is set.
  std::string callgraph_dump;

  /// The text report: one line per finding plus a trailing summary line.
  [[nodiscard]] std::string render_text() const;
};

/// Runs the full analysis.
[[nodiscard]] Report analyze(const Input& input);

/// Disk-walking front half: loads the .cpp/.hpp and artifact files under
/// `paths` (relative to `root` unless absolute), skipping paths that contain
/// any `excludes` substring, plus the layers and baseline files when present.
/// On IO failure returns false and sets `error`.
struct TreeOptions {
  std::string root = ".";
  std::vector<std::string> paths;
  std::string layers_file;    ///< "" -> root/docs/ARCHITECTURE.layers when present
  std::string baseline_file;  ///< "" -> root/kBaselinePath when present
  std::vector<std::string> excludes = {"fixtures-bad", "fixtures-clean", "build"};
  unsigned jobs = 0;
};
[[nodiscard]] bool collect_tree(const TreeOptions& options, Input& input, std::string& error);

}  // namespace upn::analyze
