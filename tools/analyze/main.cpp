// upn_analyze CLI: whole-program static analysis with layering DAG
// enforcement, contract-coverage audit, flow-sensitive token rules,
// concurrency-safety and determinism-taint passes, the hot-path performance
// pass, include hygiene, the interprocedural passes, artifact checks for
// .upnp/.upne/.upns/.upnf files, and one shrink-only baseline.
//
// Usage:
//   upn_analyze [options] PATH...
//     --root DIR        repo root; reported paths are relative to it (default .)
//     --layers FILE     module DAG (default ROOT/docs/ARCHITECTURE.layers if present)
//     --baseline FILE   the baseline (default ROOT/tools/analyze/analyze.baseline)
//     --dump-callgraph  print the whole-program call graph before the report
//     --jobs N          analysis thread count, 1..4096 (default: UPN_THREADS, else 1)
//     --exclude SUBSTR  skip paths containing SUBSTR (repeatable; defaults
//                       additionally skip fixtures-bad/, fixtures-clean/, build*/)
//     --write-baseline  rewrite the baseline at the current debt level
//
// Exit codes: 0 clean, 1 findings, 2 usage / IO error.  The text report is
// byte-identical at every --jobs value.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/util/par.hpp"
#include "tools/analyze/engine.hpp"

namespace {

int usage() {
  std::cerr << "usage: upn_analyze [--root DIR] [--layers FILE] [--baseline FILE]\n"
               "                   [--dump-callgraph] [--jobs N] [--exclude SUBSTR]...\n"
               "                   [--write-baseline] PATH...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  upn::analyze::TreeOptions options;
  bool write_baseline = false;
  bool dump_callgraph = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--help" || arg == "-h") return usage();
    if (arg == "--root") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.root = v;
    } else if (arg == "--layers") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.layers_file = v;
    } else if (arg == "--baseline") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.baseline_file = v;
    } else if (arg == "--dump-callgraph") {
      dump_callgraph = true;
    } else if (arg == "--jobs") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.jobs = upn::ThreadPool::parse_threads(v);
      if (options.jobs == 0) return usage();
    } else if (arg == "--exclude") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.excludes.emplace_back(v);
    } else if (arg == "--write-baseline") {
      write_baseline = true;
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
  input.want_callgraph = dump_callgraph;

  const upn::analyze::Report report = upn::analyze::analyze(input);

  if (write_baseline) {
    // The new frozen set is everything currently flagged, whether or not the
    // old baseline covered it.
    std::vector<upn::analyze::Finding> debt = report.baselined;
    debt.insert(debt.end(), report.findings.begin(), report.findings.end());
    const std::string path = options.baseline_file.empty()
                                 ? options.root + "/" + upn::analyze::kBaselinePath
                                 : options.baseline_file;
    std::ofstream out{path, std::ios::binary};
    if (!out) {
      std::cerr << "upn_analyze: cannot write baseline " << path << "\n";
      return 2;
    }
    out << upn::analyze::render_baseline(debt);
    std::cerr << "upn_analyze: baseline rewritten: " << path << "\n";
  }

  if (dump_callgraph) std::cout << report.callgraph_dump;
  std::cout << report.render_text();
  return report.findings.empty() ? 0 : 1;
}
