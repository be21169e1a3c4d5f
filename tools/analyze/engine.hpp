// The upn_analyze engine: collects C++ sources, builds the IR per file on
// the util/par ThreadPool, runs every pass, and merges findings in
// deterministic (file, line, rule, message) order -- the report is
// byte-identical at every --jobs value (tests pin {1, 2, 7}).
//
// The engine reports through the obs registry (`analyze.*` counters: runs,
// files, findings, callgraph.*) when obs collection is on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tools/analyze/passes.hpp"

namespace upn::analyze {

/// Everything one analysis run consumes, fully in memory so tests can drive
/// the engine without touching disk.
struct Input {
  /// Repo-relative paths, forward slashes.
  std::vector<SourceFile> files;
  std::string layers_path;  ///< "" skips the layering + hotpath passes
  std::string layers_text;
  unsigned jobs = 0;        ///< 0 picks ThreadPool::default_threads()
};

struct Report {
  std::vector<Finding> findings;  ///< sorted
  std::size_t files = 0;

  /// The text report: one line per finding plus a trailing summary line.
  [[nodiscard]] std::string render_text() const;
};

/// Runs the full analysis.
[[nodiscard]] Report analyze(const Input& input);

/// Disk-walking front half: loads the .cpp/.hpp files under
/// `paths` (relative to `root` unless absolute), skipping files below a
/// directory whose name matches one of `excludes` (an exact name, or a
/// prefix when the entry ends in '*'), plus root/docs/ARCHITECTURE.layers
/// when present.  On IO failure, or when `paths` select no file, returns
/// false and sets `error`.
struct TreeOptions {
  std::string root = ".";
  std::vector<std::string> paths;
  std::vector<std::string> excludes = {"build", "build-*", "cmake-build-*", "fixtures-bad",
                                       "fixtures-clean"};
  unsigned jobs = 0;
};
[[nodiscard]] bool collect_tree(const TreeOptions& options, Input& input, std::string& error);

}  // namespace upn::analyze
