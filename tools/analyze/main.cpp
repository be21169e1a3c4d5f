// upn_analyze CLI: whole-program static analysis with layering DAG
// enforcement, flow-sensitive token rules, concurrency-safety and
// determinism-taint passes, the hot-path performance pass, include hygiene,
// and the interprocedural passes.
//
// Usage:
//   upn_analyze [--root DIR] [--jobs N] PATH...
//     --root DIR  repo root; reported paths are relative to it (default .).
//                 ROOT/docs/ARCHITECTURE.layers, when present, is the module DAG.
//     --jobs N    analysis thread count, 1..4096 (default: UPN_THREADS, else 1)
//
// Files below build/, build-*/, cmake-build-*/, fixtures-bad/ and
// fixtures-clean/ directories are skipped.
//
// Exit codes: 0 clean, 1 findings, 2 usage / IO error or no file to analyze.
// The text report is byte-identical at every --jobs value.
#include <iostream>
#include <string>

#include "src/util/par.hpp"
#include "tools/analyze/engine.hpp"

namespace {

int usage() {
  std::cerr << "usage: upn_analyze [--root DIR] [--jobs N] PATH...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  upn::analyze::TreeOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--root" && has_value) {
      options.root = argv[++i];
    } else if (arg == "--jobs" && has_value) {
      options.jobs = upn::ThreadPool::parse_threads(argv[++i]);
      if (options.jobs == 0) return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      options.paths.push_back(arg);
    }
  }
  if (options.paths.empty()) return usage();

  upn::analyze::Input input;
  std::string error;
  if (!upn::analyze::collect_tree(options, input, error)) {
    std::cerr << "upn_analyze: " << error << "\n";
    return 2;
  }
  const upn::analyze::Report report = upn::analyze::analyze(input);
  std::cout << report.render_text();
  return report.findings.empty() ? 0 : 1;
}
