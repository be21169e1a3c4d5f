// upn_analyze CLI: whole-program static analysis with layering DAG
// enforcement, contract-coverage audit, flow-sensitive token rules,
// concurrency-safety and determinism-taint passes, the hot-path performance
// pass, include hygiene, the interprocedural passes, artifact checks for
// .upnp/.upne/.upns/.upnf files, one shrink-only baseline, and SARIF 2.1.0
// output for CI annotation.
//
// Usage:
//   upn_analyze [options] PATH...
//     --root DIR        repo root; reported paths are relative to it (default .)
//     --layers FILE     module DAG (default ROOT/docs/ARCHITECTURE.layers if present)
//     --baseline FILE   the baseline (default ROOT/tools/analyze/analyze.baseline)
//     --ir-cache DIR    cache parsed TU IR in DIR, keyed by content hash, so
//                       back-to-back runs (the CI --diff gate + full run)
//                       parse each unchanged file once
//     --dump-callgraph  print the whole-program call graph before the report
//     --sarif FILE      also write a SARIF 2.1.0 report to FILE
//     --jobs N          analysis thread count (default: UPN_THREADS, else 1)
//     --exclude SUBSTR  skip paths containing SUBSTR (repeatable; defaults
//                       additionally skip fixtures-bad/, fixtures-clean/, build*/)
//     --diff GIT_REF    report only findings in files `git diff --name-only
//                       GIT_REF` lists (the fast PR gate; analysis itself
//                       still runs over every PATH so cross-file passes see
//                       the whole tree)
//     --write-baseline  rewrite the baseline at the current debt level
//
// Exit codes: 0 clean, 1 findings, 2 usage / IO error.  The text report and
// the SARIF document are byte-identical at every --jobs value.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/engine.hpp"
#include "tools/analyze/sarif.hpp"

namespace {

int usage() {
  std::cerr << "usage: upn_analyze [--root DIR] [--layers FILE] [--baseline FILE]\n"
               "                   [--ir-cache DIR] [--dump-callgraph] [--sarif FILE]\n"
               "                   [--jobs N] [--exclude SUBSTR]... [--diff GIT_REF]\n"
               "                   [--write-baseline] PATH...\n";
  return 2;
}

/// The files `git diff --name-only <ref>` reports, repo-relative.  Returns
/// false (with `error` set) when git itself fails.
bool changed_files(const std::string& root, const std::string& ref,
                   std::set<std::string>& files, std::string& error) {
  const std::string command =
      "git -C '" + root + "' diff --name-only '" + ref + "' -- 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    error = "cannot run git diff";
    return false;
  }
  std::string line;
  for (int c = std::fgetc(pipe); c != EOF; c = std::fgetc(pipe)) {
    if (c == '\n') {
      if (!line.empty()) files.insert(line);
      line.clear();
    } else {
      line += static_cast<char>(c);
    }
  }
  if (!line.empty()) files.insert(line);
  if (pclose(pipe) != 0) {
    error = "git diff --name-only '" + ref + "' failed (bad ref or not a git repo?)";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  upn::analyze::TreeOptions options;
  std::string sarif_path;
  std::string diff_ref;
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
    } else if (arg == "--ir-cache") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.ir_cache_dir = v;
    } else if (arg == "--dump-callgraph") {
      dump_callgraph = true;
    } else if (arg == "--sarif") {
      const char* v = value();
      if (v == nullptr) return usage();
      sarif_path = v;
    } else if (arg == "--jobs") {
      const char* v = value();
      if (v == nullptr) return usage();
      const long jobs = std::strtol(v, nullptr, 10);
      if (jobs < 1) return usage();
      options.jobs = static_cast<unsigned>(jobs);
    } else if (arg == "--exclude") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.excludes.emplace_back(v);
    } else if (arg == "--diff") {
      const char* v = value();
      if (v == nullptr) return usage();
      diff_ref = v;
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

  upn::analyze::Report report = upn::analyze::analyze(input);

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

  if (!diff_ref.empty()) {
    std::set<std::string> changed;
    if (!changed_files(options.root, diff_ref, changed, error)) {
      std::cerr << "upn_analyze: " << error << "\n";
      return 2;
    }
    upn::analyze::restrict_to_files(report, changed);
    std::cerr << "upn_analyze: --diff " << diff_ref << " restricted reporting to "
              << changed.size() << " changed files\n";
  }

  if (!sarif_path.empty()) {
    std::ofstream out{sarif_path, std::ios::binary};
    if (!out) {
      std::cerr << "upn_analyze: cannot write SARIF report " << sarif_path << "\n";
      return 2;
    }
    out << upn::analyze::write_sarif(report.findings);
  }

  if (dump_callgraph) std::cout << report.callgraph_dump;
  std::cout << report.render_text();
  return report.findings.empty() ? 0 : 1;
}
